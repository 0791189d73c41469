//! The repository benchmark's measuring program. `run.py` builds it,
//! pins its environment per workload and turns its result line into the
//! benchmark's output; see `perfbench/README.md` for the workloads and
//! the metrics.
//!
//! Usage: `hpgmxp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! The last line of standard output is one JSON object: `metrics` (raw
//! numbers by name), `correct`, `attempted`, `failed`, `failures`,
//! `derived` and `config`.

mod probes;
mod spans;

use hpgmxp_comm::{run_spmd, Comm, ReduceOp, Timeline};
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_core::problem::{assemble_with_policy, LocalProblem, ProblemSpec};
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_trace::{Lane, Mode};
use rayon::ThreadPool;
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Relative residual a to-tolerance solve must reach (the benchmark's
/// validation target).
const TTS_TOL: f64 = 1e-9;
/// Iteration cap of a to-tolerance solve; the shipped policies need
/// 41–49 on the workload boxes, so hitting it is a failure.
const TTS_MAX_ITERS: usize = 500;
/// Untimed warm-up per phase, after set-up.
const WARMUP: Duration = Duration::from_secs(2);
/// Timed rounds per loop at the least, so every figure is a median of
/// at least three samples and one slow solve cannot move it.
const MIN_ROUNDS: usize = 3;

/// The three solvers the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Solver {
    /// f64 GMRES (the "double" phase).
    Double,
    /// GMRES-IR under the `f32` policy (the "mxp" phase).
    Mxp,
    /// GMRES-IR under the `f16s-f32c` policy.
    F16s,
}

impl Solver {
    fn key(self) -> &'static str {
        match self {
            Solver::Double => "double",
            Solver::Mxp => "mxp",
            Solver::F16s => "f16s",
        }
    }

    fn policy(self) -> PrecisionPolicy {
        let name = match self {
            Solver::Double => "f64",
            Solver::Mxp => "f32",
            Solver::F16s => "f16s-f32c",
        };
        PrecisionPolicy::by_name(name).expect("shipped policy")
    }

    fn span_name(self) -> &'static str {
        match self {
            Solver::Double => "bench solve double",
            Solver::Mxp => "bench solve mxp",
            Solver::F16s => "bench solve f16s",
        }
    }
}

/// How long one solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Procedure {
    /// Exactly this many inner iterations (tolerance 0), as in the
    /// benchmark's timed phases.
    Fixed(usize),
    /// Until the relative residual reaches [`TTS_TOL`].
    ToTol,
}

/// A stretch of a run that holds one set of assembled problems: one
/// per distinct (solver, box) of its solves.
struct Phase {
    /// Timed loops, run one after the other on the phase's problems.
    loops: Vec<Loop>,
}

impl Phase {
    fn solves(&self) -> impl Iterator<Item = &(Solver, Procedure, u32)> {
        self.loops.iter().flat_map(|l| &l.solves)
    }
}

/// A closed loop of rounds: at least [`MIN_ROUNDS`], then more until
/// its share of `--seconds` is spent.
struct Loop {
    /// One round: these solves, each on a local box of this edge per
    /// rank, in this order.
    solves: Vec<(Solver, Procedure, u32)>,
    /// Share of `--seconds` this loop repeats rounds for.
    share: f64,
}

struct Workload {
    ranks: usize,
    /// Rayon threads per rank (`run.py` pins `RAYON_NUM_THREADS`).
    threads: usize,
    /// Rayon threads of the to-tolerance solves, when not `threads`.
    tol_threads: Option<usize>,
    /// The workload's own box edge; the per-layer probes run on it.
    local: u32,
    /// Set-ups per phase; `setup_s` takes the median.
    setup_reps: usize,
    phases: Vec<Phase>,
}

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        use Procedure::{Fixed, ToTol};
        use Solver::{Double, F16s, Mxp};
        let tts = |local| vec![(Double, ToTol, local), (Mxp, ToTol, local), (F16s, ToTol, local)];
        Some(match name {
            // 128³ is the only box whose fine-level matrices exceed the
            // 300 MiB L3. The two policies are assembled one after the
            // other because together they would need ~7 GB. The 1e-9
            // solves are the single-threaded time-to-solution baseline:
            // a 48³ box on one thread, because at 128³ they take about a
            // minute per solver, and 2-thread solves of a box that small
            // spread by a quarter or more from run to run on a 2-vCPU
            // host. They share the second phase, so no gigabytes are
            // freed right before them: the kernel takes freed memory back
            // for seconds, and timed solves must not overlap that.
            "memwall-128" => Workload {
                ranks: 1,
                threads: 2,
                tol_threads: Some(1),
                local: 128,
                setup_reps: 1,
                phases: vec![
                    Phase { loops: vec![Loop { solves: vec![(Mxp, Fixed(3), 128)], share: 0.3 }] },
                    Phase {
                        loops: vec![
                            Loop { solves: vec![(Double, Fixed(3), 128)], share: 0.3 },
                            Loop { solves: tts(48), share: 0.4 },
                        ],
                    },
                ],
            },
            // Two 300-iteration solves take ~10 s, so the ~2 s round of
            // to-tolerance solves gets a loop of its own, to be sampled
            // more often than the minimum three rounds.
            "halo-32-p2" => Workload {
                ranks: 2,
                threads: 1,
                tol_threads: None,
                local: 32,
                setup_reps: 7,
                phases: vec![Phase {
                    loops: vec![
                        Loop {
                            solves: vec![(Mxp, Fixed(300), 32), (Double, Fixed(300), 32)],
                            share: 0.6,
                        },
                        Loop { solves: tts(32), share: 0.4 },
                    ],
                }],
            },
            _ => return None,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One timed solve, reduced over ranks.
#[derive(Debug, Clone)]
struct SolveRec {
    solver: Solver,
    procedure: Procedure,
    local: u32,
    traced: bool,
    /// Wall time of the slowest / fastest rank.
    wall_max: f64,
    wall_min: f64,
    /// Counted FLOPs summed over ranks.
    flops: f64,
    iters: usize,
    relres: f64,
    converged: bool,
    /// Computed bytes per inner iteration on rank 0.
    bytes_per_iter: f64,
    /// Rank 0's own wall time and per-motif seconds.
    wall_rank0: f64,
    motif_s: BTreeMap<&'static str, f64>,
    /// Allreduces rank 0 completed during the solve.
    allreduces: u64,
    overlap_eff: Option<f64>,
    /// Global-recorder window of the solve, for span attribution.
    window_ns: (u64, u64),
}

impl SolveRec {
    fn gflops(&self) -> f64 {
        self.flops / self.wall_max / 1e9
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Whether any rank says so: every rank gets the same answer, so loops
/// that stop on it keep their collectives paired.
fn any_rank<C: Comm>(c: &C, yes: bool) -> bool {
    max_over_ranks(c, if yes { 1.0 } else { 0.0 }) > 0.0
}

/// Slowest rank's value.
fn max_over_ranks<C: Comm>(c: &C, v: f64) -> f64 {
    c.allreduce_scalar(v, ReduceOp::Max)
}

fn spec_for(wl: &Workload, local: u32, seed: u64) -> ProblemSpec {
    ProblemSpec {
        local: (local, local, local),
        procs: ProcGrid::factor(wl.ranks as u32),
        stencil: Stencil27::symmetric(),
        mg_levels: 4,
        seed,
    }
}

fn solve<C: Comm>(
    c: &C,
    prob: &LocalProblem,
    solver: Solver,
    procedure: Procedure,
    traced: bool,
) -> SolveRec {
    let (max_iters, tol) = match procedure {
        Procedure::Fixed(n) => (n, 0.0),
        Procedure::ToTol => (TTS_MAX_ITERS, TTS_TOL),
    };
    // Table 1: restart 30, 1+1 smoothing sweeps (the defaults).
    let opts = GmresOptions { max_iters, tol, ..GmresOptions::default() };
    assert_eq!((opts.restart, opts.pre_smooth, opts.post_smooth), (30, 1, 1));
    // The traced round records overlap; the untraced one stays lean.
    let tl = if traced { Timeline::enabled() } else { Timeline::disabled() };
    c.barrier();
    let coll0 = c.coll_stats().map_or(0, |s| s.allreduces);
    let now = || if traced { hpgmxp_trace::global().now_ns() } else { 0 };
    let ns0 = now();
    let t0 = Instant::now();
    let (_, st) = {
        let _sp = hpgmxp_trace::span(solver.span_name(), Lane::Compute);
        match solver {
            Solver::Double => gmres_solve_f64(c, prob, &opts, &tl),
            _ => gmres_ir_solve_policy(c, prob, &solver.policy(), &opts, &tl),
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let ns1 = now();
    let allreduces = c.coll_stats().map_or(0, |s| s.allreduces) - coll0;
    let mut red = [wall, -wall, st.motifs.total_flops()];
    c.allreduce(&mut red[..2], ReduceOp::Max);
    c.allreduce(&mut red[2..], ReduceOp::Sum);
    let motif_s = Motif::ALL.iter().map(|&m| (m.label(), st.motifs.seconds(m))).collect();
    SolveRec {
        solver,
        procedure,
        local: prob.spec.local.0,
        traced,
        wall_max: red[0],
        wall_min: -red[1],
        flops: red[2],
        iters: st.iters,
        relres: st.final_relres,
        converged: st.converged,
        bytes_per_iter: st.motifs.total_bytes() / st.iters.max(1) as f64,
        wall_rank0: wall,
        motif_s,
        allreduces,
        overlap_eff: st.overlap_efficiency.or(tl.overlap_efficiency()),
        window_ns: (ns0, ns1),
    }
}

/// Switch the process trace mode between barriers, so no rank is still
/// inside a solve of the previous mode.
fn set_mode<C: Comm>(c: &C, m: Mode) {
    c.barrier();
    if c.rank() == 0 {
        hpgmxp_trace::set_mode_override(m);
    }
    c.barrier();
}

/// What one rank brings home.
struct RankOut {
    setup_s: f64,
    solves: Vec<SolveRec>,
    layer: BTreeMap<String, f64>,
}

fn run_rank<C: Comm>(c: &C, wl: &Workload, args: &Args) -> RankOut {
    let mut out = RankOut { setup_s: 0.0, solves: Vec::new(), layer: BTreeMap::new() };
    let tol_pool = wl.tol_threads.map(ThreadPool::new);
    let timed = |prob: &LocalProblem, s: Solver, pr: Procedure, traced: bool| match &tol_pool {
        Some(pool) if pr == Procedure::ToTol => pool.install(|| solve(c, prob, s, pr, traced)),
        _ => solve(c, prob, s, pr, traced),
    };
    for phase in &wl.phases {
        let mut keys: Vec<(Solver, u32)> = phase.solves().map(|&(s, _, l)| (s, l)).collect();
        keys.sort();
        keys.dedup();

        // Set-up: assemble every (policy, box) the phase solves with,
        // timed on the slowest rank; repeated `setup_reps` times.
        let mut probs: Vec<((Solver, u32), LocalProblem)> = Vec::new();
        let mut reps = Vec::new();
        for _ in 0..wl.setup_reps {
            probs.clear();
            let mut total = 0.0;
            for &(s, local) in &keys {
                c.barrier();
                let t0 = Instant::now();
                let p = {
                    let _sp = hpgmxp_trace::span("bench assemble", Lane::Compute);
                    assemble_with_policy(&spec_for(wl, local, args.seed), c.rank(), &s.policy())
                };
                total += max_over_ranks(c, t0.elapsed().as_secs_f64());
                probs.push(((s, local), p));
            }
            reps.push(total);
        }
        out.setup_s += median(&reps);
        let prob_of =
            |k: (Solver, u32)| &probs.iter().find(|(pk, _)| *pk == k).expect("assembled").1;
        // Untimed single iterations, cycling over the problems for at
        // least WARMUP: they fault in each solver's workspaces, stream
        // every matrix once and let the kernel finish taking back the
        // memory earlier work freed, so no timed solve pays for it.
        let t_warm = Instant::now();
        loop {
            for &(s, local) in &keys {
                solve(c, prob_of((s, local)), s, Procedure::Fixed(1), false);
            }
            if any_rank(c, t_warm.elapsed() >= WARMUP) {
                break;
            }
        }

        if args.trace {
            let own: Vec<(Solver, &LocalProblem)> = probs
                .iter()
                .filter(|((_, l), _)| *l == wl.local)
                .map(|((s, _), p)| (*s, p))
                .collect();
            probes::run(c, &own, args.seed, &mut out.layer);
            // One untraced and one traced round: the difference is the
            // cost of watching.
            for (mode, traced) in [(Mode::Off, false), (Mode::Spans, true)] {
                set_mode(c, mode);
                for &(s, pr, local) in phase.solves() {
                    out.solves.push(timed(prob_of((s, local)), s, pr, traced));
                }
            }
        } else {
            for lp in &phase.loops {
                let budget = Duration::from_secs_f64(lp.share * args.seconds);
                let t0 = Instant::now();
                for round in 1.. {
                    for &(s, pr, local) in &lp.solves {
                        out.solves.push(timed(prob_of((s, local)), s, pr, false));
                    }
                    if round >= MIN_ROUNDS && any_rank(c, t0.elapsed() >= budget) {
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Correctness bookkeeping: every solve and every check is one
/// operation.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn check_solves(solves: &[SolveRec], ops: &mut Ops) {
    for r in solves {
        // The solve itself returned: one successful operation.
        ops.attempted += 1;
        let name = format!("{} {:?} {}^3", r.solver.key(), r.procedure, r.local);
        match r.procedure {
            Procedure::Fixed(n) => ops.check(r.relres.is_finite() && r.iters == n, || {
                format!("{name}: relres {:e} after {} iterations", r.relres, r.iters)
            }),
            Procedure::ToTol => ops
                .check(r.converged && r.relres.is_finite() && r.relres <= TTS_TOL, || {
                    format!("{name}: converged={} relres {:e}", r.converged, r.relres)
                }),
        }
    }
    // Repetitions of one solve must agree bit for bit on the residual
    // and exactly on the computed bytes.
    let mut groups: BTreeMap<String, Vec<&SolveRec>> = BTreeMap::new();
    for r in solves {
        groups
            .entry(format!("{} {:?} {}^3", r.solver.key(), r.procedure, r.local))
            .or_default()
            .push(r);
    }
    for (name, g) in groups.iter().filter(|(_, g)| g.len() > 1) {
        ops.check(g.iter().all(|r| r.relres.to_bits() == g[0].relres.to_bits()), || {
            format!("{name}: residual differs across repetitions")
        });
        ops.check(g.iter().all(|r| r.bytes_per_iter == g[0].bytes_per_iter), || {
            format!("{name}: bytes per iteration differ across repetitions")
        });
    }
}

/// Solves of `solver` whose rate is the workload's GF/s: its
/// fixed-iteration ones.
fn gflops_solves(solves: &[SolveRec], solver: Solver, traced: Option<bool>) -> Vec<&SolveRec> {
    solves
        .iter()
        .filter(|r| r.solver == solver && matches!(r.procedure, Procedure::Fixed(_)))
        .filter(|r| traced.is_none_or(|t| r.traced == t))
        .collect()
}

fn tts_solves(solves: &[SolveRec], solver: Solver) -> Vec<&SolveRec> {
    solves.iter().filter(|r| r.solver == solver && r.procedure == Procedure::ToTol).collect()
}

/// Peak resident memory of this process, from the kernel's high-water
/// mark.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("hpgmxp-perfbench: {e}");
        std::process::exit(2);
    });
    let wl = Workload::by_name(&args.workload).unwrap_or_else(|| {
        eprintln!("hpgmxp-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    });
    let mut ops = Ops::default();
    let threads = rayon::current_num_threads();
    ops.check(threads == wl.threads, || {
        format!("rayon runs {threads} threads, workload wants {} (RAYON_NUM_THREADS)", wl.threads)
    });

    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut config: Vec<(String, Value)> = Vec::new();
    if args.trace {
        // Before any assembly, so the triad arrays and the problem
        // never share memory.
        probes::host(&mut layer, &mut config);
    }

    let t_run = Instant::now();
    let mut outs = run_spmd(wl.ranks, |c| run_rank(&c, &wl, &args));
    let r0 = outs.swap_remove(0);
    let solves = r0.solves;
    layer.extend(r0.layer);
    check_solves(&solves, &mut ops);
    for r in &solves {
        eprintln!(
            "solve {:6} {:10} {:>3}^3 traced={:5} {:3} it {:9.4} s {:8.4} GF/s relres {:.3e}",
            r.solver.key(),
            format!("{:?}", r.procedure),
            r.local,
            r.traced,
            r.iters,
            r.wall_max,
            r.gflops(),
            r.relres
        );
    }

    let gf = |s: Solver| {
        median(&gflops_solves(&solves, s, None).iter().map(|r| r.gflops()).collect::<Vec<_>>())
    };
    let tts =
        |s: Solver| median(&tts_solves(&solves, s).iter().map(|r| r.wall_max).collect::<Vec<_>>());
    let iters = |s: Solver| tts_solves(&solves, s)[0].iters as f64;
    let (nd, nir_mxp, nir_f16s) = (iters(Solver::Double), iters(Solver::Mxp), iters(Solver::F16s));
    // Reported, never gated: a faster f64 baseline would read as a
    // regression of the speedup.
    let derived = vec![
        ("mxp_over_double", gf(Solver::Mxp) / gf(Solver::Double)),
        ("penalty.mxp", (nd / nir_mxp).min(1.0)),
        ("penalty.f16s", (nd / nir_f16s).min(1.0)),
        ("iters.nd", nd),
        ("iters.nir_mxp", nir_mxp),
        ("iters.nir_f16s", nir_f16s),
        ("solves", solves.len() as f64),
        ("run_s", t_run.elapsed().as_secs_f64()),
    ];

    let metrics: BTreeMap<String, f64> = if args.trace {
        spans::core_and_trace(&wl, &solves, &mut layer);
        for (k, v) in &derived[1..6] {
            layer.insert(format!("core.{k}"), *v);
        }
        if wl.ranks > 1 {
            hpgmxp_trace::set_mode_override(Mode::Off);
            if let Some(t1) = probes::single_rank_wall(&wl, args.seed) {
                let t2 = gflops_solves(&solves, Solver::Mxp, Some(false))[0].wall_max;
                layer.insert("comm.weak_eff_1to2".into(), t1 / t2);
            }
        }
        layer
    } else {
        let mut m = BTreeMap::new();
        m.insert("setup_s".into(), r0.setup_s);
        m.insert("mxp_gflops".into(), gf(Solver::Mxp));
        m.insert("double_gflops".into(), gf(Solver::Double));
        m.insert("tts_double_s".into(), tts(Solver::Double));
        m.insert("tts_mxp_s".into(), tts(Solver::Mxp));
        m.insert("tts_f16s_s".into(), tts(Solver::F16s));
        match peak_rss_mib() {
            Ok(v) => {
                m.insert("peak_rss_mib".into(), v);
            }
            Err(e) => ops.check(false, || format!("peak RSS unreadable: {e}")),
        }
        m
    };

    let int = |v: usize| Value::Int(v as i128);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    config.push(("workload".into(), Value::Str(args.workload.clone())));
    config.push(("seed".into(), Value::Int(args.seed.into())));
    config.push(("seconds".into(), Value::Float(args.seconds)));
    config.push(("ranks".into(), int(wl.ranks)));
    config.push(("rayon_threads".into(), int(threads)));
    config.push(("simd".into(), Value::Str(hpgmxp_core::benchmark::simd_descriptor())));
    config.push(("nproc".into(), int(nproc)));
    for key in ["HPGMXP_TRACE", "HPGMXP_SIMD", "HPGMXP_COLL", "HPGMXP_COMM", "RAYON_NUM_THREADS"] {
        config.push((key.into(), Value::Str(std::env::var(key).unwrap_or_default())));
    }

    let numbers = |kv: Vec<(String, f64)>| {
        Value::Obj(kv.into_iter().map(|(k, v)| (k, Value::Float(v))).collect())
    };
    let failed = ops.failures.len();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::Int(ops.attempted.into())),
        ("failed".into(), int(failed)),
        ("failures".into(), Value::Arr(ops.failures.into_iter().map(Value::Str).collect())),
        ("metrics".into(), numbers(metrics.into_iter().collect())),
        ("derived".into(), numbers(derived.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
        ("config".into(), Value::Obj(config)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("a Value always serializes"));
}
