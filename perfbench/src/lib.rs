//! End-to-end and per-layer benchmark of the Cage toolchain, driven only
//! through its public API.
//!
//! Three workloads, all under [`compile::VARIANT`] with the full IR
//! optimiser:
//!
//! - `polybench`: one pass over the PolyBench suite per operation —
//!   engine dispatch and the tag-checked memory path do the work;
//! - `cold-start`: C source to first result per operation — frontend,
//!   IR passes, lowering, validation and instantiation do the work;
//! - `serve`: nine tenants behind single-slot pools, open loop at a
//!   frozen rate, then closed loop — pool reset, short invokes and the
//!   trap path do the work.
//!
//! An untraced run ([`run`] with `trace == false`) measures one workload
//! end to end. A traced run measures the same workload layer by layer
//! with spans around the public calls, and derives the tracing overhead
//! by alternating traced and untraced operations.

pub mod cold_start;
pub mod compile;
pub mod corpus;
pub mod polybench;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cage::Variant;

use crate::compile::CompileCounts;
use crate::rng::Rng;
use crate::stats::{elapsed_ns, median, quantile};
use crate::trace::Tracer;

/// How many times each workload is set up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Seconds a traced run spends on each workload other than the requested
/// one, for the per-layer metrics that only that workload exercises.
pub const SIDE_SECONDS: f64 = 1.0;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The PolyBench suite, a pass per operation.
    Polybench,
    /// Source to first result, a program per operation.
    ColdStart,
    /// Multi-tenant serving, a request per operation.
    Serve,
}

impl Workload {
    /// Every workload, in the order a traced run measures them.
    pub const ALL: [Workload; 3] = [Workload::Polybench, Workload::ColdStart, Workload::Serve];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Polybench => "polybench",
            Workload::ColdStart => "cold-start",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with a wrong result.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// The spans of a traced run's requested workload.
    pub spans: Option<(Workload, Tracer)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Whether every operation gave the right result.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `workload` for `seconds` with inputs drawn from `seed`: end to
/// end when `trace` is false, layer by layer when true (see [`traced`]).
///
/// # Errors
///
/// A set-up failure (a program that does not compile or instantiate).
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    if trace {
        traced(workload, seed, seconds, &mut report)?;
        return Ok(report);
    }
    let (setup_s, p50_ms, p90_ms, ops_per_s) = match workload {
        Workload::Polybench => polybench_e2e(seed, seconds, &mut report)?,
        Workload::ColdStart => cold_start_e2e(seed, seconds, &mut report)?,
        Workload::Serve => serve_e2e(seed, seconds, &mut report)?,
    };
    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_rss_mb", stats::peak_rss_mib(), "MiB");
    report.push("latency_p50_ms", p50_ms, "ms");
    report.push("latency_p90_ms", p90_ms, "ms");
    report.push("throughput_ops_s", ops_per_s, "1/s");
    Ok(report)
}

/// Set-up times (s), median and p90 operation latency (ms), and completed
/// operations per second.
///
/// The tail is p90, not p99: a polybench run holds only a few hundred
/// passes, and on serve the p99 swings several-fold between runs with
/// rare multi-millisecond stalls (the traced run still reports
/// `serve.latency_us_p99`).
type E2e = (Vec<f64>, f64, f64, f64);

fn polybench_e2e(seed: u64, seconds: f64, report: &mut Report) -> Result<E2e, String> {
    let engine = compile::engine(compile::VARIANT);
    let kernels = cage_polybench::kernels();
    let calls = polybench::reference_calls(&kernels);
    let mut setup_s = Vec::new();
    let mut suite = None;
    for _ in 0..SETUP_REPS {
        drop(suite.take());
        let begin = Instant::now();
        suite = Some(polybench::Suite::new(&engine, &kernels, &calls)?);
        setup_s.push(begin.elapsed().as_secs_f64());
    }
    let mut suite = suite.ok_or("no set-up")?;
    let mut rng = Rng::new(seed, 1);
    let mut off = Tracer::new(Instant::now());
    let mut lat_ms = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        let order = rng.permutation(kernels.len());
        let begin = Instant::now();
        let pass = suite.pass(&order, &mut off)?;
        lat_ms.push(ms(elapsed_ns(begin)));
        report.attempted += 1;
        report.failed += u64::from(!pass.ok);
    }
    let rate = report.attempted as f64 / start.elapsed().as_secs_f64();
    Ok((setup_s, median(&lat_ms), quantile(&lat_ms, 0.90), rate))
}

/// Warm-up for `cold-start`: every corpus program once, checked.
fn cold_start_warmup(
    engine: &cage::Engine,
    programs: &[cold_start::Program],
    rng: &mut Rng,
) -> Result<(), String> {
    let mut off = Tracer::new(Instant::now());
    for p in programs {
        let (ok, _) = cold_start::op(engine, p, &p.call(rng), &mut off)?;
        if !ok {
            return Err(format!("{}: wrong first result during set-up", p.name));
        }
    }
    Ok(())
}

fn cold_start_e2e(seed: u64, seconds: f64, report: &mut Report) -> Result<E2e, String> {
    let engine = compile::engine(compile::VARIANT);
    let programs = cold_start::corpus();
    // Reserved before any program runs, while the allocator still maps a
    // buffer this size on its own: grown mid-run instead, the samples
    // once landed on the heap above a freed linear memory and, in some
    // runs, pushed the next one to fresh pages (+3.4 MiB peak RSS).
    let mut lat_ms: Vec<f64> = Vec::with_capacity((seconds * 4000.0) as usize);
    let mut setup_s = Vec::new();
    let mut rng = Rng::new(seed, 2);
    for _ in 0..SETUP_REPS {
        let begin = Instant::now();
        cold_start_warmup(&engine, &programs, &mut rng)?;
        setup_s.push(begin.elapsed().as_secs_f64());
    }
    let mut off = Tracer::new(Instant::now());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut order = Vec::new();
    while start.elapsed() < budget {
        if order.is_empty() {
            order = rng.permutation(programs.len());
        }
        let p = &programs[order.pop().unwrap_or_default()];
        let call = p.call(&mut rng);
        let begin = Instant::now();
        let (ok, pool) = cold_start::op(&engine, p, &call, &mut off)?;
        let took = ms(elapsed_ns(begin));
        drop(pool);
        lat_ms.push(took);
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    let rate = report.attempted as f64 / start.elapsed().as_secs_f64();
    Ok((setup_s, median(&lat_ms), quantile(&lat_ms, 0.90), rate))
}

fn serve_e2e(seed: u64, seconds: f64, report: &mut Report) -> Result<E2e, String> {
    let engine = compile::engine(compile::VARIANT);
    let phases = serve::Phases {
        open_s: seconds * 0.6,
        closed_s: seconds * 0.4,
        alternate_trace: false,
    };
    let (setup_s, workers) = serve::run(&engine, seed, SETUP_REPS, phases, Instant::now())?;
    let mut rate = 0.0;
    for w in &workers {
        report.attempted += w.attempted;
        report.failed += w.failed;
        rate += w.closed_done as f64 / w.closed_s;
    }
    let lat_ms: Vec<f64> = workers
        .iter()
        .flat_map(|w| &w.latency_ns)
        .map(|&ns| ms(u64::from(ns)))
        .collect();
    Ok((setup_s, median(&lat_ms), quantile(&lat_ms, 0.90), rate))
}

/// The deterministic counter block: compile sizes over the cold-start
/// corpus and one PolyBench pass's retired ops and simulated cycles.
/// The same code gives the same values for every seed.
///
/// # Errors
///
/// A set-up failure, a replay or staged-compile mismatch, or a wrong
/// PolyBench checksum.
pub fn counters(seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let engine = compile::engine(compile::VARIANT);
    let mut off = Tracer::new(Instant::now());
    let mut sizes = CompileCounts::default();
    for p in cold_start::corpus() {
        sizes.add(
            &compile::probe(&engine, &p.source, &mut off)
                .map_err(|e| format!("{}: {e}", p.name))?,
        );
    }
    let kernels = cage_polybench::kernels();
    let calls = polybench::reference_calls(&kernels);
    let mut suite = polybench::Suite::new(&engine, &kernels, &calls)?;
    let order = Rng::new(seed, 1).permutation(kernels.len());
    let pass = suite.pass(&order, &mut off)?;
    if !pass.ok {
        return Err("PolyBench checksum mismatch".into());
    }
    let mut c = BTreeMap::new();
    c.insert("ir.stmts_out".to_string(), sizes.stmts_out as f64);
    c.insert("wasm.module_bytes".to_string(), sizes.module_bytes as f64);
    c.insert("engine.reg_ops".to_string(), sizes.reg_ops as f64);
    c.insert("engine.reg_spilled".to_string(), sizes.reg_spilled as f64);
    c.insert(
        "engine.reg_bridge_ops".to_string(),
        sizes.reg_bridge_ops as f64,
    );
    c.insert(
        "engine.retired_ops".to_string(),
        pass.retired.iter().sum::<u64>() as f64,
    );
    // Summed in suite order, whatever the pass order, so the float sum
    // repeats exactly.
    c.insert("engine.sim_cycles".to_string(), pass.cycles.iter().sum());
    for (name, retired) in suite.names().iter().zip(&pass.retired) {
        c.insert(format!("polybench.{name}.retired"), *retired as f64);
    }
    Ok(c)
}

/// Percent by which `a` exceeds `b`.
fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        (a / b - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The traced run: the deterministic counters, then `workload` traced for
/// `seconds`. Each per-layer metric is measured on the one workload that
/// loads its layer (`cc.*`, `ir.*`, `wasm.*`, engine lowering, template
/// and instantiate on `cold-start`; the other `serve.*` on `serve`;
/// `polybench.*`, `hardening.*` and `engine.ns_per_retired_op` on
/// `polybench`), so every traced run prints every metric: those of the
/// other two workloads come from a [`SIDE_SECONDS`] run of each.
/// `trace.overhead_pct` and the spans are the requested workload's.
fn traced(workload: Workload, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    for (name, value) in counters(seed)? {
        report.push(name, value, "count");
    }
    let epoch = Instant::now();
    for w in Workload::ALL {
        let secs = if w == workload { seconds } else { SIDE_SECONDS };
        let (overhead_pct, spans) = match w {
            Workload::Polybench => traced_polybench(seed, secs, epoch, report)?,
            Workload::ColdStart => traced_cold_start(seed, secs, epoch, report)?,
            Workload::Serve => traced_serve(seed, secs, epoch, report)?,
        };
        if w == workload {
            report.push("trace.overhead_pct", overhead_pct, "%");
            report.spans = Some((w, spans));
        }
    }
    Ok(())
}

/// The median traced operation's excess over the median untraced one, in
/// percent, and the spans of the traced operations.
type TracedRun = (f64, Tracer);

fn traced_polybench(
    seed: u64,
    seconds: f64,
    epoch: Instant,
    report: &mut Report,
) -> Result<TracedRun, String> {
    let kernels = cage_polybench::kernels();
    let calls = polybench::reference_calls(&kernels);
    let mut full = polybench::Suite::new(&compile::engine(compile::VARIANT), &kernels, &calls)?;
    let mut base =
        polybench::Suite::new(&compile::engine(Variant::BaselineWasm64), &kernels, &calls)?;
    let mut t = Tracer::new(epoch);
    let mut rng = Rng::new(seed, 1);
    let (mut traced_ns, mut plain_ns, mut base_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut invoke_ms: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let (mut first, mut first_base): (
        Option<polybench::PassResult>,
        Option<polybench::PassResult>,
    ) = (None, None);
    let start = Instant::now();
    let mut i = 0u64;
    // Every mode runs at least once, so every metric has a sample.
    while i < 3 || start.elapsed().as_secs_f64() < seconds {
        let order = rng.permutation(kernels.len());
        let mode = i % 3;
        t.set_on(mode == 0);
        t.begin_op(i);
        i += 1;
        let begin = Instant::now();
        let pass = if mode == 2 {
            base.pass(&order, &mut t)?
        } else {
            full.pass(&order, &mut t)?
        };
        let took = elapsed_ns(begin) as f64;
        report.attempted += 1;
        report.failed += u64::from(!pass.ok);
        match mode {
            0 => {
                traced_ns.push(took);
                for (k, ns) in pass.invoke_ns.iter().enumerate() {
                    invoke_ms[k].push(ms(*ns));
                }
            }
            1 => plain_ns.push(took),
            _ => base_ns.push(took),
        }
        let slot = if mode == 2 {
            &mut first_base
        } else {
            &mut first
        };
        match slot {
            None => *slot = Some(pass),
            Some(f) => report.failed += u64::from(f.retired != pass.retired),
        }
    }
    t.set_on(false);
    let (first, first_base) = (first.unwrap_or_default(), first_base.unwrap_or_default());
    let cycles: f64 = first.cycles.iter().sum();
    let base_cycles: f64 = first_base.cycles.iter().sum();
    report.push(
        "hardening.cycle_overhead_pct",
        pct_over(cycles, base_cycles),
        "%",
    );
    report.push(
        "hardening.wall_overhead_pct",
        pct_over(median(&plain_ns), median(&base_ns)),
        "%",
    );
    let retired = first.retired.iter().sum::<u64>().max(1) as f64;
    report.push(
        "engine.ns_per_retired_op",
        median(&plain_ns) / retired,
        "ns",
    );
    for (name, ms) in full.names().iter().zip(&invoke_ms) {
        report.push(format!("polybench.{name}.ms"), median(ms), "ms");
    }
    Ok((pct_over(median(&traced_ns), median(&plain_ns)), t))
}

fn traced_cold_start(
    seed: u64,
    seconds: f64,
    epoch: Instant,
    report: &mut Report,
) -> Result<TracedRun, String> {
    let engine = compile::engine(compile::VARIANT);
    let programs = cold_start::corpus();
    let mut rng = Rng::new(seed, 2);
    cold_start_warmup(&engine, &programs, &mut rng)?;
    let mut t = Tracer::new(epoch);
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut order = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < 2 || start.elapsed().as_secs_f64() < seconds {
        if order.is_empty() {
            order = rng.permutation(programs.len());
        }
        let p = &programs[order.pop().unwrap_or_default()];
        let call = p.call(&mut rng);
        let on = i.is_multiple_of(2);
        t.set_on(on);
        t.begin_op(i);
        i += 1;
        let begin = Instant::now();
        let (mut ok, pool) = cold_start::op(&engine, p, &call, &mut t)?;
        let took = ms(elapsed_ns(begin));
        drop(pool);
        if on {
            traced_ms.push(took);
            if let Err(e) = compile::probe(&engine, &p.source, &mut t) {
                eprintln!("{}: {e}", p.name);
                ok = false;
            }
        } else {
            plain_ms.push(took);
        }
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    t.set_on(false);
    let per_program = |name: &str| {
        let by = t.self_time_by_name();
        let n = by.get("probe").map_or(0, |e| e.0).max(1);
        by.get(name).map_or(0.0, |e| e.1 as f64 / n as f64 / 1e3)
    };
    for (metric, span) in [
        ("cc.parse_us", "cc.parse"),
        ("cc.codegen_us", "cc.codegen"),
        ("ir.passes_us", "ir.passes"),
        ("ir.lower_us", "ir.lower"),
        ("wasm.validate_us", "wasm.validate"),
        ("engine.precompile_us", "engine.precompile"),
        ("serve.template_us", "engine.instance_pre"),
        ("serve.instantiate_us", "pool.checkout_cold"),
    ] {
        report.push(metric, t.mean_self_us(span), "us");
    }
    for (metric, span) in [
        ("engine.lower_stack_us", "engine.lower_stack"),
        ("engine.lower_reg_us", "engine.lower_reg"),
    ] {
        report.push(metric, per_program(span), "us");
    }
    for pass in [
        "mem2reg",
        "const_fold",
        "cse",
        "simplify_cfg",
        "load_forward",
        "strength_reduce",
        "dce",
        "stack_safety",
        "ptr_auth",
    ] {
        report.push(
            format!("ir.pass.{pass}_us"),
            per_program(&format!("ir.pass.{pass}")),
            "us",
        );
    }
    Ok((pct_over(median(&traced_ms), median(&plain_ms)), t))
}

fn traced_serve(
    seed: u64,
    seconds: f64,
    epoch: Instant,
    report: &mut Report,
) -> Result<TracedRun, String> {
    let engine = compile::engine(compile::VARIANT);
    let phases = serve::Phases {
        open_s: seconds / 2.0,
        closed_s: seconds / 2.0,
        alternate_trace: true,
    };
    let (_, workers) = serve::run(&engine, seed, 1, phases, epoch)?;
    let mut t = Tracer::new(epoch);
    let (mut lat_us, mut wait_us) = (Vec::new(), Vec::new());
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let (mut late_max_ns, mut attacks, mut trapped) = (0u64, 0u64, 0u64);
    for w in workers {
        report.attempted += w.attempted;
        report.failed += w.failed;
        lat_us.extend(w.latency_ns.iter().map(|&ns| f64::from(ns) / 1e3));
        wait_us.extend(w.queue_wait_ns.iter().map(|&ns| ns as f64 / 1e3));
        traced_ns.extend(w.service_traced_ns.iter().map(|&ns| ns as f64));
        plain_ns.extend(w.service_plain_ns.iter().map(|&ns| ns as f64));
        late_max_ns = late_max_ns.max(w.late_max_ns);
        attacks += w.attacks;
        trapped += w.attacks_trapped;
        t.absorb(w.tracer);
    }
    for (metric, span) in [
        ("serve.reset_us", "pool.checkout"),
        ("serve.invoke_us", "pool.invoke"),
        ("serve.trap_invoke_us", "pool.invoke_attack"),
        ("serve.release_us", "pool.release"),
    ] {
        report.push(metric, t.mean_self_us(span), "us");
    }
    report.push("serve.latency_us_p99", quantile(&lat_us, 0.99), "us");
    report.push("serve.queue_wait_us_p50", median(&wait_us), "us");
    report.push("serve.queue_wait_us_p99", quantile(&wait_us, 0.99), "us");
    report.push(
        "serve.generator_late_us_max",
        late_max_ns as f64 / 1e3,
        "us",
    );
    report.push(
        "serve.attacks_trapped_frac",
        if attacks == 0 {
            0.0
        } else {
            trapped as f64 / attacks as f64
        },
        "ratio",
    );
    Ok((pct_over(median(&traced_ns), median(&plain_ns)), t))
}

/// Writes the traced workload's spans to `dir/spans_<workload>.tsv` and
/// returns each span name's share of the self time spent inside
/// operations (the probes that follow traced operations are left out),
/// largest first; `None` for an untraced run.
///
/// # Errors
///
/// The file-system error.
pub fn write_spans(report: &Report, dir: &Path) -> std::io::Result<Option<Vec<(String, f64)>>> {
    let Some((w, t)) = &report.spans else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("spans_{}.tsv", w.name())), t.to_tsv())?;
    let spans = t.spans();
    let mut root = Vec::with_capacity(spans.len());
    let mut by: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, (s, own)) in spans.iter().zip(t.self_times_ns()).enumerate() {
        let r = s.parent.map_or(i, |p| root[p]);
        root.push(r);
        if spans[r].name != "probe" {
            *by.entry(s.name).or_default() += own;
        }
    }
    let total = by.values().sum::<u64>().max(1) as f64;
    let mut rows: Vec<(String, f64)> = by
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / total))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(Some(rows))
}
