//! `serve`: a multi-tenant pool under an open-loop Poisson load at a
//! fixed offered rate, then a closed loop for peak throughput.
//!
//! Nine tenants: the request handler and the eight gallery programs,
//! picked by a skewed (Zipf) draw; about one gallery request in twenty is
//! an attack (`run(1)`) that must end in its Cage trap. Each worker owns
//! one pool per tenant, and each pool holds one slot, reset on every
//! checkout: combined-mode MTE allows one instance per store (§6.4).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use cage::{Engine, InstancePre, Pool, Value};

use crate::compile;
use crate::corpus::{self, Call, Expect, GalleryProgram};
use crate::rng::Rng;
use crate::stats::elapsed_ns;
use crate::trace::Tracer;

/// Worker threads (the benchmark machine's core count).
pub const WORKERS: usize = 2;

/// Offered load of the open loop, in requests per second over all
/// workers: about a quarter of the closed-loop peak measured when the
/// benchmark was defined, frozen so later changes are judged at the same
/// load. At half the peak the open loop backed up for whole runs
/// whenever the host was busy.
pub const OFFERED_RPS: f64 = 30_000.0;

/// Share of gallery requests that are attacks.
pub const ATTACK_SHARE: f64 = 0.05;

/// Spans one worker keeps before it stops tracing requests.
const SPAN_CAP: usize = 60_000;

/// Compiled tenants: the handler first, then the gallery in Table 2
/// order.
pub struct Tenants {
    pres: Vec<Arc<InstancePre>>,
    gallery: Vec<GalleryProgram>,
    weights: Vec<f64>,
}

impl Tenants {
    /// Compiles and templates all nine tenants.
    ///
    /// # Errors
    ///
    /// A tenant that fails to compile or template.
    pub fn new(engine: &Engine) -> Result<Self, String> {
        let gallery = corpus::gallery_programs();
        let mut off = Tracer::new(Instant::now());
        let mut pres = vec![compile::compile_and_template(
            engine,
            corpus::HANDLER,
            &mut off,
        )?];
        for g in &gallery {
            pres.push(
                compile::compile_and_template(engine, g.source, &mut off)
                    .map_err(|e| format!("{}: {e}", g.cve))?,
            );
        }
        // Zipf popularity with exponent 1, the handler most popular.
        let weights = (0..pres.len()).map(|i| 1.0 / (i + 1) as f64).collect();
        Ok(Tenants {
            pres,
            gallery,
            weights,
        })
    }

    /// A seeded request: the tenant, the call and whether it is an
    /// attack.
    fn draw(&self, rng: &mut Rng) -> (usize, Call, bool) {
        let tenant = rng.weighted(&self.weights);
        if tenant == 0 {
            let req = rng.below(1 << 20) as i64;
            let call = Call {
                export: "handle",
                args: vec![Value::I64(req)],
                expect: Expect::I64(corpus::handle_model(req)),
            };
            return (tenant, call, false);
        }
        let g = &self.gallery[tenant - 1];
        let attack = rng.unit() < ATTACK_SHARE;
        let call = Call {
            export: "run",
            args: vec![Value::I64(i64::from(attack))],
            expect: if attack {
                Expect::Trap(g.attack)
            } else {
                Expect::I64(g.benign)
            },
        };
        (tenant, call, attack)
    }
}

/// How long each phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Open-loop seconds.
    pub open_s: f64,
    /// Closed-loop seconds.
    pub closed_s: f64,
    /// Trace every other request (the traced run); otherwise trace none.
    pub alternate_trace: bool,
}

/// What one worker measured.
#[derive(Debug)]
pub struct WorkerReport {
    /// Open loop: latency from due time to completion (ns, saturating).
    pub latency_ns: Vec<u32>,
    /// Open loop, traced run only: due time to service start (ns).
    pub queue_wait_ns: Vec<u64>,
    /// Open loop: the most the worker woke late for a request it was
    /// idle for (ns).
    pub late_max_ns: u64,
    /// Closed loop: completed requests.
    pub closed_done: u64,
    /// Closed loop: seconds measured.
    pub closed_s: f64,
    /// Traced run only: service time of traced requests (ns).
    pub service_traced_ns: Vec<u64>,
    /// Traced run only: service time of untraced requests (ns).
    pub service_plain_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests with a wrong result or a missing expected trap.
    pub failed: u64,
    /// Attack requests sent.
    pub attacks: u64,
    /// Attack requests that ended in their expected trap.
    pub attacks_trapped: u64,
    /// The worker's spans.
    pub tracer: Tracer,
}

/// One worker's pools, one single-slot pool per tenant.
struct Worker {
    pools: Vec<Pool>,
}

impl Worker {
    /// Builds the pools and instantiates each slot once (cold).
    fn new(tenants: &Tenants) -> Result<Self, String> {
        let mut pools = Vec::with_capacity(tenants.pres.len());
        for pre in &tenants.pres {
            let mut pool = Pool::new(Arc::clone(pre));
            pool.set_max_slots(Some(1));
            let inst = pool.checkout().map_err(|e| e.to_string())?;
            pool.release(inst);
            pools.push(pool);
        }
        Ok(Worker { pools })
    }

    /// Checkout (a reset), invoke, release. Returns whether the outcome
    /// was the expected one.
    fn request(&mut self, tenant: usize, call: &Call, attack: bool, t: &mut Tracer) -> bool {
        let pool = &mut self.pools[tenant];
        t.span("serve.request", |t| {
            let Ok(inst) = t.span("pool.checkout", |_| pool.checkout()) else {
                return false;
            };
            let name = if attack {
                "pool.invoke_attack"
            } else {
                "pool.invoke"
            };
            let out = t.span(name, |_| pool.invoke(&inst, call.export, &call.args));
            t.span("pool.release", |_| pool.release(inst));
            call.check(&out)
        })
    }
}

/// Yields in a loop until `due`. A timed sleep would wake late by up to
/// milliseconds on a virtual machine; yielding keeps the wake-up prompt
/// while still letting other tasks on the core run while the worker is
/// idle.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        thread::yield_now();
    }
}

/// One worker's two phases.
fn drive(
    worker: &mut Worker,
    tenants: &Tenants,
    phases: Phases,
    rng: &mut Rng,
    mut tracer: Tracer,
    op_base: u64,
) -> WorkerReport {
    let rate = OFFERED_RPS / WORKERS as f64;
    let mut r = WorkerReport {
        // Reserved up front so the open loop does not grow it mid-run.
        latency_ns: Vec::with_capacity((rate * phases.open_s * 1.1) as usize),
        queue_wait_ns: Vec::new(),
        late_max_ns: 0,
        closed_done: 0,
        closed_s: 0.0,
        service_traced_ns: Vec::new(),
        service_plain_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        attacks: 0,
        attacks_trapped: 0,
        tracer: Tracer::new(Instant::now()),
    };
    let mut seq = op_base;
    // One request, timed from service start.
    let mut one =
        |worker: &mut Worker, r: &mut WorkerReport, tracer: &mut Tracer, rng: &mut Rng| {
            let (tenant, call, attack) = tenants.draw(rng);
            let traced = phases.alternate_trace && seq.is_multiple_of(2) && tracer.len() < SPAN_CAP;
            tracer.set_on(traced);
            tracer.begin_op(seq);
            seq += 1;
            let began = Instant::now();
            let ok = worker.request(tenant, &call, attack, tracer);
            // Per-request samples beyond open-loop latency are kept only in
            // the traced run: their number grows with throughput, and so
            // would the peak memory the untraced run reports.
            if phases.alternate_trace {
                let took = elapsed_ns(began);
                if traced {
                    r.service_traced_ns.push(took);
                } else {
                    r.service_plain_ns.push(took);
                }
            }
            r.attempted += 1;
            r.failed += u64::from(!ok);
            if attack {
                r.attacks += 1;
                r.attacks_trapped += u64::from(ok);
            }
        };

    let start = Instant::now();
    let open_end = start + Duration::from_secs_f64(phases.open_s);
    let mut due = start + Duration::from_secs_f64(rng.exp_interval(rate));
    while due < open_end {
        if Instant::now() < due {
            wait_until(due);
            r.late_max_ns = r.late_max_ns.max(elapsed_ns(due));
        }
        if phases.alternate_trace {
            r.queue_wait_ns.push(elapsed_ns(due));
        }
        one(worker, &mut r, &mut tracer, rng);
        r.latency_ns
            .push(u32::try_from(elapsed_ns(due)).unwrap_or(u32::MAX));
        due += Duration::from_secs_f64(rng.exp_interval(rate));
    }

    let start = Instant::now();
    let span = Duration::from_secs_f64(phases.closed_s);
    while start.elapsed() < span {
        one(worker, &mut r, &mut tracer, rng);
        r.closed_done += 1;
    }
    r.closed_s = start.elapsed().as_secs_f64();
    tracer.set_on(false);
    r.tracer = tracer;
    r
}

/// Sets the workload up `setups` times (compile, template, per-worker
/// pools with every slot instantiated) and runs the phases after the
/// last. Returns each set-up's duration in seconds and the workers'
/// reports.
///
/// # Errors
///
/// A set-up failure.
pub fn run(
    engine: &Engine,
    seed: u64,
    setups: usize,
    phases: Phases,
    epoch: Instant,
) -> Result<(Vec<f64>, Vec<WorkerReport>), String> {
    let mut setup_s = Vec::with_capacity(setups);
    for rep in 0..setups {
        let last = rep + 1 == setups;
        let begin = Instant::now();
        let tenants = Tenants::new(engine)?;
        let ready = Barrier::new(WORKERS + 1);
        let reports = thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (tenants, ready) = (&tenants, &ready);
                    scope.spawn(move || {
                        let built = Worker::new(tenants);
                        ready.wait();
                        let mut worker = built?;
                        if !last {
                            return Ok(None);
                        }
                        let mut rng = Rng::new(seed, 100 + w as u64);
                        let tracer = Tracer::new(epoch);
                        Ok(Some(drive(
                            &mut worker,
                            tenants,
                            phases,
                            &mut rng,
                            tracer,
                            (w as u64) << 40,
                        )))
                    })
                })
                .collect();
            ready.wait();
            setup_s.push(begin.elapsed().as_secs_f64());
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "serve worker panicked".to_string())?)
                .collect::<Result<Vec<Option<WorkerReport>>, String>>()
        })?;
        if last {
            return Ok((setup_s, reports.into_iter().flatten().collect()));
        }
    }
    Err("no set-up requested".into())
}
