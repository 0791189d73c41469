//! Per-layer metrics derived from the timed solves: the solver's own
//! per-motif accounting, the transport's collective counters, and the
//! self time of the spans the traced round recorded.

use crate::{gflops_solves, SolveRec, Solver, Workload};
use hpgmxp_trace::{EventRec, Kind};
use std::collections::BTreeMap;

/// Span categories reported as self time; names map by prefix.
const CATEGORIES: [&str; 12] = [
    "outer", "cycle", "mg0", "mg1", "mg2", "mg3", "spmv", "gs", "restrict", "halo", "coll", "other",
];

fn category(name: &str) -> &'static str {
    match name {
        _ if name.starts_with("bench solve") => "outer",
        "gmres cycle" => "cycle",
        "MG level 0" => "mg0",
        "MG level 1" => "mg1",
        "MG level 2" => "mg2",
        "MG level 3" => "mg3",
        "allreduce" | "coll round" | "barrier" | "allgather" => "coll",
        _ if name.starts_with("SpMV") => "spmv",
        _ if name.starts_with("GS") => "gs",
        _ if name.contains("restrict") => "restrict",
        _ if name.starts_with("halo") => "halo",
        _ => "other",
    }
}

/// Self time (span time minus the time of its direct children on the
/// same thread) summed per category, over spans that start inside
/// `window`.
fn self_times(events: &[EventRec], window: (u64, u64)) -> BTreeMap<&'static str, f64> {
    let mut spans: Vec<&EventRec> = events
        .iter()
        .filter(|e| e.kind == Kind::Span && e.start_ns >= window.0 && e.start_ns <= window.1)
        .collect();
    // Per thread, outer spans first: start ascending, end descending.
    spans.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.end_ns)));
    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let e = spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].tid != e.tid || spans[top].end_ns <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += e.end_ns - e.start_ns;
        }
        stack.push(i);
    }
    let mut out: BTreeMap<&'static str, f64> = CATEGORIES.iter().map(|&c| (c, 0.0)).collect();
    for (e, child) in spans.iter().zip(child_ns) {
        let own = (e.end_ns - e.start_ns).saturating_sub(child);
        *out.get_mut(category(e.name)).expect("known category") += own as f64 * 1e-9;
    }
    out
}

/// `core.*`, `comm.*` solve-derived and `trace.*` metrics, plus the
/// roofline fractions of the sparse probes.
pub fn core_and_trace(wl: &Workload, solves: &[SolveRec], layer: &mut BTreeMap<String, f64>) {
    let events = hpgmxp_trace::global().events();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for solver in [Solver::Mxp, Solver::Double] {
        let key = solver.key();
        let untraced = gflops_solves(solves, solver, Some(false));
        let traced = gflops_solves(solves, solver, Some(true));
        untraced_s += untraced.iter().map(|r| r.wall_max).sum::<f64>();
        traced_s += traced.iter().map(|r| r.wall_max).sum::<f64>();

        let r = untraced[0];
        let iters = r.iters.max(1) as f64;
        for motif in ["GS", "SpMV", "Ortho", "Restr"] {
            layer.insert(format!("core.{key}.{motif}.s_per_iter"), r.motif_s[motif] / iters);
        }
        let attributed: f64 = r.motif_s.values().sum();
        layer.insert(
            format!("core.{key}.unattributed_frac"),
            (r.wall_rank0 - attributed) / r.wall_rank0,
        );
        layer.insert(format!("core.{key}.bytes_per_iter"), r.bytes_per_iter);

        let t = traced[0];
        let per = (t.iters.max(1) * wl.ranks) as f64;
        for (cat, s) in self_times(&events, t.window_ns) {
            layer.insert(format!("trace.{key}.self.{cat}_s_per_iter"), s / per);
        }

        if solver == Solver::Mxp && wl.ranks > 1 {
            layer.insert("comm.coll.allreduces_per_iter".into(), r.allreduces as f64 / iters);
            layer.insert("comm.rank_skew".into(), r.wall_max / r.wall_min);
            if let Some(eff) = t.overlap_eff {
                layer.insert("comm.overlap_eff".into(), eff);
            }
        }
    }
    layer.insert("trace.overhead_frac".into(), (traced_s - untraced_s) / untraced_s);
    layer.insert("trace.dropped".into(), hpgmxp_trace::global().dropped() as f64);

    let triad = layer["host.stream_triad_gibs"];
    let rooflines: Vec<(String, f64)> = layer
        .iter()
        .filter(|(k, _)| k.starts_with("sparse.spmv.") || k.starts_with("sparse.gs."))
        .filter_map(|(k, v)| Some((format!("{}.roofline", k.strip_suffix(".gibs")?), v / triad)))
        .collect();
    layer.extend(rooflines);
}
