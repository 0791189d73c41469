//! Per-layer probes: each times one layer's public functions from
//! outside, on the workload's own assembled problem, inside a
//! benchmark-owned span.

use crate::{max_over_ranks, median, solve, spec_for, Phase, Procedure, Solver, Workload};
use hpgmxp_comm::{run_spmd, Comm, ReduceOp, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::mg::{apply_mg, MgWorkspace, SmootherKind};
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_gs_sweep, OpCtx, SweepDir};
use hpgmxp_core::ortho::cgs2;
use hpgmxp_core::problem::{assemble_with_policy, Level, LocalProblem, ProblemSpec};
use hpgmxp_geometry::ProcGrid;
use hpgmxp_sparse::blas::{axpy, dot, Basis};
use hpgmxp_sparse::half::widen_f16_slice;
use hpgmxp_sparse::{jpl_coloring, EllMatrix, Half, Scalar};
use hpgmxp_trace::Lane;
use rayon::prelude::*;
use rayon::ThreadPool;
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Halo tag of the probes' own exchanges (no solve is in flight).
const PROBE_TAG: u64 = 9000;
const GIB: f64 = (1u64 << 30) as f64;

type Layer = BTreeMap<String, f64>;

/// SplitMix64 stream `stream` of `seed`, mapped into [0.5, 1.5).
fn rand_vec<S: Scalar>(n: usize, seed: u64, stream: u64) -> Vec<S> {
    let mut s = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            S::from_f64(0.5 + (z >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Slowest rank's median seconds of `f`, over enough repetitions to
/// fill about a quarter second (at least `min_reps`). The first call
/// warms caches and sizes the repetition count; every rank runs the
/// same count, so collective probes stay paired.
fn time_reps<C: Comm>(c: &C, min_reps: usize, mut f: impl FnMut()) -> f64 {
    c.barrier();
    let t0 = Instant::now();
    f();
    let first = max_over_ranks(c, t0.elapsed().as_secs_f64());
    let reps = ((0.25 / first.max(1e-9)).ceil() as usize).clamp(min_reps, 1000);
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        c.barrier();
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    max_over_ranks(c, median(&v))
}

/// Size of the last-level cache, from sysfs.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let (num, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1u64 << 10),
            'M' => (&size[..size.len() - 1], 1 << 20),
            'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let bytes = num.parse::<u64>().ok()? * mult;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// STREAM triad `a = b + s·c` over arrays of at least 4× the LLC, on
/// every core: the roofline denominator.
pub fn host(layer: &mut Layer, config: &mut Vec<(String, Value)>) {
    let llc = llc_bytes();
    let array_bytes = (4 * llc.unwrap_or(32 << 20)).max(64 << 20);
    let n = (array_bytes / 8) as usize;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pool = ThreadPool::new(threads);
    let (mut a, b, cv) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    const CHUNK: usize = 1 << 16;
    let mut times = Vec::new();
    let _sp = hpgmxp_trace::span("bench triad", Lane::Compute);
    for _ in 0..6 {
        let t0 = Instant::now();
        pool.install(|| {
            a.par_chunks_mut(CHUNK).enumerate().for_each(|(i, ch)| {
                let off = i * CHUNK;
                let (bs, cs) = (&b[off..off + ch.len()], &cv[off..off + ch.len()]);
                for ((x, &y), &z) in ch.iter_mut().zip(bs).zip(cs) {
                    *x = y + 3.0 * z;
                }
            })
        });
        times.push(t0.elapsed().as_secs_f64());
        black_box(&a);
    }
    // The first pass faults the output pages in.
    let t = median(&times[1..]);
    layer.insert("host.stream_triad_gibs".into(), 3.0 * (n * 8) as f64 / t / GIB);
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    config.push(("triad_array_mib".into(), Value::Float(mib(n as u64 * 8))));
    config.push(("llc_mib".into(), llc.map_or(Value::Null, |b| Value::Float(mib(b)))));
    config.push(("triad_threads".into(), Value::Int(threads as i128)));
}

/// `EllMatrix::spmv_par` at storage `S`, accumulate `A`; bytes as the
/// solver's traffic model counts them.
fn spmv_gibs<S: Scalar, A: Scalar, C: Comm>(c: &C, ell: &EllMatrix<S>, seed: u64) -> f64 {
    let x: Vec<A> = rand_vec(ell.ncols(), seed, 1);
    let mut y = vec![A::ZERO; ell.nrows()];
    let _sp = hpgmxp_trace::span("bench spmv", Lane::Compute);
    let t = time_reps(c, 3, || ell.spmv_par(black_box(&x), &mut y));
    (ell.spmv_matrix_bytes() + 2 * ell.nrows() * A::BYTES) as f64 / t / GIB
}

/// One forward `dist_gs_sweep` at compute `S` under `ctx`'s storage;
/// bytes from the sweep's own traffic record.
fn gs_gibs<S: Scalar, C: Comm>(ctx: &OpCtx<C>, level: &Level, seed: u64) -> f64 {
    let r: Vec<S> = rand_vec(level.n_local(), seed, 2);
    let mut z = vec![S::ZERO; level.vec_len()];
    let mut once = MotifStats::new();
    dist_gs_sweep(ctx, level, &mut once, PROBE_TAG, SweepDir::Forward, &r, &mut z);
    let bytes = once.bytes(Motif::GaussSeidel);
    let mut st = MotifStats::new();
    let _sp = hpgmxp_trace::span("bench gs", Lane::Compute);
    let t = time_reps(ctx.comm, 3, || {
        dist_gs_sweep(ctx, level, &mut st, PROBE_TAG, SweepDir::Forward, &r, &mut z)
    });
    bytes / t / GIB
}

/// 1-thread time over 2-thread time of `f`.
fn scaling_1to2<C: Comm>(c: &C, mut f: impl FnMut()) -> f64 {
    let (p1, p2) = (ThreadPool::new(1), ThreadPool::new(2));
    let t1 = time_reps(c, 3, || p1.install(&mut f));
    let t2 = time_reps(c, 3, || p2.install(&mut f));
    t1 / t2
}

/// Run the probes that each assembled policy's problem serves.
pub fn run<C: Comm>(c: &C, probs: &[(Solver, &LocalProblem)], seed: u64, layer: &mut Layer) {
    let tl = Timeline::disabled();
    for (solver, prob) in probs {
        let fine = &prob.levels[0];
        let n = fine.n_local();
        match solver {
            Solver::Double => {
                let ctx = OpCtx::new(c, ImplVariant::Optimized, &tl);
                layer.insert(
                    "sparse.spmv.f64.gibs".into(),
                    spmv_gibs::<f64, f64, C>(c, fine.ell64(), seed),
                );
                layer.insert("sparse.gs.f64.gibs".into(), gs_gibs::<f64, C>(&ctx, fine, seed));
                let (x, mut y) = (rand_vec::<f64>(n, seed, 3), rand_vec::<f64>(n, seed, 4));
                let _sp = hpgmxp_trace::span("bench blas", Lane::Compute);
                let t = time_reps(c, 3, || {
                    black_box(dot(black_box(&x), &y));
                });
                layer.insert("sparse.dot.f64.gibs".into(), (16 * n) as f64 / t / GIB);
                let t = time_reps(c, 3, || axpy(1e-3, black_box(&x), &mut y));
                layer.insert("sparse.axpy.f64.gibs".into(), (24 * n) as f64 / t / GIB);
                drop(_sp);
                // Two assembly stages, on the fine level's operator.
                let _sp = hpgmxp_trace::span("bench setup stages", Lane::Compute);
                let t = time_reps(c, 1, || drop(black_box(jpl_coloring(fine.csr64(), seed))));
                layer.insert("sparse.coloring_s".into(), t);
                let t = time_reps(c, 1, || drop(black_box(EllMatrix::from_csr(fine.csr64()))));
                layer.insert("sparse.ell_build_s".into(), t);
            }
            Solver::Mxp => {
                let ctx = OpCtx::with_prec(c, ImplVariant::Optimized, &tl, solver.policy().ctx());
                let ell = fine.ell32();
                layer.insert("sparse.spmv.f32.gibs".into(), spmv_gibs::<f32, f32, C>(c, ell, seed));
                layer.insert("sparse.gs.f32.gibs".into(), gs_gibs::<f32, C>(&ctx, fine, seed));

                let src: Vec<Half> =
                    rand_vec::<f32>(n, seed, 5).into_iter().map(Half::from_f32).collect();
                let mut dst = vec![0.0f32; n];
                let _sp = hpgmxp_trace::span("bench f16 widen", Lane::Compute);
                let t = time_reps(c, 3, || widen_f16_slice(black_box(&src), &mut dst));
                layer.insert("sparse.f16_widen.gibs".into(), (6 * n) as f64 / t / GIB);
                drop(_sp);

                let _sp = hpgmxp_trace::span("bench rayon scaling", Lane::Compute);
                let x: Vec<f32> = rand_vec(ell.ncols(), seed, 1);
                let mut y = vec![0.0f32; n];
                let s = scaling_1to2(c, || ell.spmv_par(black_box(&x), &mut y));
                layer.insert("rayon.spmv.scaling_1to2".into(), s);
                let r: Vec<f32> = rand_vec(n, seed, 2);
                let mut z = vec![0.0f32; fine.vec_len()];
                let mut st = MotifStats::new();
                let s = scaling_1to2(c, || {
                    dist_gs_sweep(&ctx, fine, &mut st, PROBE_TAG, SweepDir::Forward, &r, &mut z)
                });
                layer.insert("rayon.gs.scaling_1to2".into(), s);
                drop(_sp);

                mg_levels(&ctx, &prob.levels, seed, layer);
                cgs2_k30(c, n, seed, layer);
                if c.size() > 1 {
                    comm_probes(c, fine, &tl, layer);
                }
            }
            Solver::F16s => {
                let ctx = OpCtx::with_prec(c, ImplVariant::Optimized, &tl, solver.policy().ctx());
                layer.insert(
                    "sparse.spmv.f16s.gibs".into(),
                    spmv_gibs::<Half, f32, C>(c, fine.ell16(), seed),
                );
                layer.insert("sparse.gs.f16s.gibs".into(), gs_gibs::<f32, C>(&ctx, fine, seed));
            }
        }
    }
}

/// Per-level V-cycle time at the mxp precision: a V-cycle on
/// `levels[l..]` minus one on `levels[l+1..]`.
fn mg_levels<C: Comm>(ctx: &OpCtx<C>, levels: &[Level], seed: u64, layer: &mut Layer) {
    let _sp = hpgmxp_trace::span("bench mg levels", Lane::Compute);
    let mut t = vec![0.0; levels.len() + 1];
    for l in (0..levels.len()).rev() {
        let lv = &levels[l..];
        let n = lv[0].n_local();
        let mut ws = MgWorkspace::<f32>::new(lv);
        let rhs: Vec<f32> = rand_vec(n, seed, 10 + l as u64);
        let mut out = vec![0.0f32; n];
        let mut st = MotifStats::new();
        t[l] = time_reps(ctx.comm, 3, || {
            apply_mg(ctx, lv, &mut st, &mut ws, 1, 1, SmootherKind::Forward, &rhs, &mut out)
        });
    }
    for l in 0..levels.len() {
        layer.insert(format!("core.mg.level{l}_s"), t[l] - t[l + 1]);
    }
}

/// CGS2 of basis column 30 against columns 0..30 (the last, widest
/// step of a restart cycle), in f32.
fn cgs2_k30<C: Comm>(c: &C, n: usize, seed: u64, layer: &mut Layer) {
    const K: usize = 30;
    let mut q = Basis::<f32>::new(n, K + 1);
    for k in 0..=K {
        q.col_mut(k).copy_from_slice(&rand_vec::<f32>(n, seed, 100 + k as u64));
    }
    let mut st = MotifStats::new();
    let _sp = hpgmxp_trace::span("bench cgs2", Lane::Compute);
    // After the first call column 30 is already orthonormal; later
    // calls do the same projections and normalization.
    let t = time_reps(c, 3, || {
        black_box(cgs2(c, &mut st, &mut q, K));
    });
    layer.insert("core.ortho.cgs2_s".into(), t);
}

/// Halo exchange at f64 and f32 wire, and a one-element allreduce.
fn comm_probes<C: Comm>(c: &C, fine: &Level, tl: &Timeline, layer: &mut Layer) {
    let _sp = hpgmxp_trace::span("bench comm", Lane::Comm);
    let mut x64 = vec![0.0f64; fine.vec_len()];
    let t = time_reps(c, 10, || fine.halo.exchange_wire(c, PROBE_TAG, &mut x64, 8, tl));
    layer.insert("comm.halo.exchange_us.f64".into(), t * 1e6);
    let mut x32 = vec![0.0f32; fine.vec_len()];
    let t = time_reps(c, 10, || fine.halo.exchange_wire(c, PROBE_TAG, &mut x32, 4, tl));
    layer.insert("comm.halo.exchange_us.f32".into(), t * 1e6);
    layer.insert("comm.halo.bytes".into(), fine.halo.send_bytes::<f64>() as f64);
    let t = time_reps(c, 10, || {
        let mut v = [1.0];
        c.allreduce(&mut v, ReduceOp::Sum);
        black_box(v);
    });
    layer.insert("comm.allreduce_us".into(), t * 1e6);
}

/// Wall time of the workload's fixed-iteration mxp solve on one rank
/// with the same local box: the numerator of weak-scaling efficiency.
pub fn single_rank_wall(wl: &Workload, seed: u64) -> Option<f64> {
    let &(_, procedure, local) = wl
        .phases
        .iter()
        .flat_map(Phase::solves)
        .find(|&&(s, pr, _)| s == Solver::Mxp && matches!(pr, Procedure::Fixed(_)))?;
    let spec = ProblemSpec { procs: ProcGrid::factor(1), ..spec_for(wl, local, seed) };
    let walls = run_spmd(1, |c| {
        let prob = assemble_with_policy(&spec, 0, &Solver::Mxp.policy());
        solve(&c, &prob, Solver::Mxp, procedure, false).wall_max
    });
    Some(walls[0])
}
