//! `cold-start`: source text to first result, one program per operation,
//! closed loop with one client.

use cage::{Engine, Pool, Value};

use crate::compile;
use crate::corpus::{self, Call, Expect};
use crate::rng::Rng;
use crate::trace::Tracer;

/// What a corpus program's first call is and how its result is known.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A PolyBench source with [`corpus::PROBE_EXPORT`] appended.
    Probe,
    /// A gallery program's benign `run(0)`.
    Gallery(i64),
    /// The request handler's `handle(req)`.
    Handler,
}

/// One program of the cold-start corpus.
#[derive(Debug, Clone)]
pub struct Program {
    /// Short name for diagnostics.
    pub name: String,
    /// C source.
    pub source: String,
    entry: Entry,
}

impl Program {
    /// The first call to make, with a seeded argument where it takes one.
    pub fn call(&self, rng: &mut Rng) -> Call {
        match self.entry {
            Entry::Probe => {
                let x = rng.below(1 << 20) as i64;
                Call {
                    export: "perfbench_probe",
                    args: vec![Value::I64(x)],
                    expect: Expect::I64(corpus::probe_model(x)),
                }
            }
            Entry::Gallery(benign) => Call {
                export: "run",
                args: vec![Value::I64(0)],
                expect: Expect::I64(benign),
            },
            Entry::Handler => {
                let req = rng.below(1 << 20) as i64;
                Call {
                    export: "handle",
                    args: vec![Value::I64(req)],
                    expect: Expect::I64(corpus::handle_model(req)),
                }
            }
        }
    }
}

/// The corpus: every PolyBench source with a trivial export appended
/// (their `run()` would bury compile time under execution), the eight
/// gallery programs and the request handler.
#[must_use]
pub fn corpus() -> Vec<Program> {
    let mut programs: Vec<Program> = cage_polybench::kernels()
        .into_iter()
        .map(|k| Program {
            name: k.name.to_string(),
            source: format!("{}{}", k.source, corpus::PROBE_EXPORT),
            entry: Entry::Probe,
        })
        .collect();
    programs.extend(corpus::gallery_programs().into_iter().map(|g| Program {
        name: g.cve.to_string(),
        source: g.source.to_string(),
        entry: Entry::Gallery(g.benign),
    }));
    programs.push(Program {
        name: "handler".to_string(),
        source: corpus::HANDLER.to_string(),
        entry: Entry::Handler,
    });
    programs
}

/// One operation: compile, template, new pool and cold checkout, the
/// first call, release. Returns whether the result was right, and the
/// pool, so that its teardown can happen outside the timed operation.
///
/// # Errors
///
/// A compile, template or instantiation failure.
pub fn op(
    engine: &Engine,
    program: &Program,
    call: &Call,
    t: &mut Tracer,
) -> Result<(bool, Pool), String> {
    t.span("cold_start.op", |t| {
        let pre = compile::compile_and_template(engine, &program.source, t)?;
        let mut pool = t.span("pool.new", |_| Pool::new(pre));
        let inst = t
            .span("pool.checkout_cold", |_| pool.checkout())
            .map_err(|e| e.to_string())?;
        let out = t.span("pool.invoke", |_| {
            pool.invoke(&inst, call.export, &call.args)
        });
        t.span("pool.release", |_| pool.release(inst));
        Ok((call.check(&out), pool))
    })
}
