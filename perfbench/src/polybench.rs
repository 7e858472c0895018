//! `polybench`: the paper's §7.1 suite, one pass over all kernels per
//! operation, closed loop with one client.

use std::time::Instant;

use cage::{Engine, Pool};
use cage_polybench::Kernel;

use crate::compile;
use crate::corpus::{Call, Expect};
use crate::stats::elapsed_ns;
use crate::trace::Tracer;

/// The compiled, templated and warmed suite: one single-slot pool per
/// kernel, plus each kernel's reference checksum.
pub struct Suite {
    names: Vec<&'static str>,
    pools: Vec<Pool>,
    calls: Vec<Call>,
}

/// One pass's outcome.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Every checksum matched its native reference.
    pub ok: bool,
    /// Invoke wall time per kernel (suite order), in nanoseconds.
    pub invoke_ns: Vec<u64>,
    /// Retired guest ops per kernel (suite order).
    pub retired: Vec<u64>,
    /// Simulated cycles per kernel (suite order).
    pub cycles: Vec<f64>,
}

/// Each kernel's native checksum as the call `run()` must match.
#[must_use]
pub fn reference_calls(kernels: &[Kernel]) -> Vec<Call> {
    kernels
        .iter()
        .map(|k| Call {
            export: "run",
            args: Vec::new(),
            expect: Expect::F64Bits((k.native)().to_bits()),
        })
        .collect()
}

impl Suite {
    /// Compiles and templates every kernel under `engine`, then runs one
    /// unchecked warm-up pass, so the first checkout of each pool (a
    /// cold instantiation) happens here.
    ///
    /// # Errors
    ///
    /// A kernel that fails to compile, template or instantiate.
    pub fn new(engine: &Engine, kernels: &[Kernel], calls: &[Call]) -> Result<Self, String> {
        let mut off = Tracer::new(Instant::now());
        let mut pools = Vec::with_capacity(kernels.len());
        for k in kernels {
            let pre = compile::compile_and_template(engine, k.source, &mut off)
                .map_err(|e| format!("{}: {e}", k.name))?;
            pools.push(Pool::new(pre));
        }
        let mut suite = Suite {
            names: kernels.iter().map(|k| k.name).collect(),
            pools,
            calls: calls.to_vec(),
        };
        let order: Vec<usize> = (0..kernels.len()).collect();
        suite.pass(&order, &mut off)?;
        Ok(suite)
    }

    /// Kernel names in suite order.
    #[must_use]
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// One pass over the kernels in `order`: checkout, `run()`, release.
    ///
    /// # Errors
    ///
    /// A checkout that fails (the pool cannot instantiate).
    pub fn pass(&mut self, order: &[usize], t: &mut Tracer) -> Result<PassResult, String> {
        let n = self.pools.len();
        let mut r = PassResult {
            ok: true,
            invoke_ns: vec![0; n],
            retired: vec![0; n],
            cycles: vec![0.0; n],
        };
        t.span("polybench.pass", |t| {
            for &k in order {
                let pool = &mut self.pools[k];
                let call = &self.calls[k];
                let inst = t
                    .span("pool.checkout", |_| pool.checkout())
                    .map_err(|e| format!("{}: {e}", self.names[k]))?;
                let start = Instant::now();
                let out = t.span("pool.invoke", |_| {
                    pool.invoke(&inst, call.export, &call.args)
                });
                r.invoke_ns[k] = elapsed_ns(start);
                r.retired[k] = pool.instr_count(&inst);
                r.cycles[k] = pool.cycles(&inst);
                t.span("pool.release", |_| pool.release(inst));
                r.ok &= call.check(&out);
            }
            Ok(r)
        })
    }
}
