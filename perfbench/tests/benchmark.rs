//! The benchmark's own checks: its deterministic counters repeat exactly,
//! and its runs print exactly the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;

use perfbench::{Report, Workload};

#[test]
fn counter_block_repeats_across_runs_and_seeds() {
    let first = perfbench::counters(1).expect("counters");
    assert_eq!(
        first,
        perfbench::counters(1).expect("counters"),
        "same seed"
    );
    assert_eq!(
        first,
        perfbench::counters(2).expect("counters"),
        "other seed"
    );
    for name in [
        "engine.retired_ops",
        "engine.sim_cycles",
        "engine.reg_ops",
        "wasm.module_bytes",
        "ir.stmts_out",
        "polybench.gemm.retired",
    ] {
        assert!(first.get(name).is_some_and(|v| *v > 0.0), "{name}");
    }
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section")..];
    let section = &section[..section.find(']').expect("list end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name end")].to_string())
        .collect()
}

fn printed(report: &Report) -> BTreeSet<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in Workload::ALL {
        let report = perfbench::run(w, 3, 0.5, false).expect("run");
        assert!(report.correct(), "{}: {} failed", w.name(), report.failed);
        assert_eq!(printed(&report), want, "{}", w.name());
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
    }
}

#[test]
fn traced_run_prints_the_declared_per_layer_metrics() {
    let want = declared("per_layer");
    for (w, op_span) in [
        (Workload::Polybench, "polybench.pass"),
        (Workload::ColdStart, "cold_start.op"),
        (Workload::Serve, "serve.request"),
    ] {
        let report = perfbench::run(w, 3, 0.9, true).expect("traced run");
        assert!(report.correct(), "{}: {} failed", w.name(), report.failed);
        assert_eq!(printed(&report), want, "{}", w.name());
        let (traced, spans) = report.spans.as_ref().expect("spans");
        assert_eq!(*traced, w);
        assert!(
            spans.spans().iter().any(|s| s.name == op_span),
            "{}: no {op_span} span",
            w.name()
        );
    }
}
