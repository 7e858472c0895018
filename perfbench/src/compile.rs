//! The engine configuration every workload uses, and the compile path
//! taken apart stage by stage for the traced run.
//!
//! [`compile_staged`] calls the same public functions, in the same order
//! and under one fuel budget, as `Engine::compile` does, so each stage
//! gets its own span. [`probe`] checks after the fact that the staged
//! output equals `Engine::compile`'s and that replaying the IR passes
//! one by one equals `run_pipeline_config_fueled`, so the per-stage and
//! per-pass spans cannot drift from the real pipeline.

use std::sync::Arc;

use cage::engine::bytecode::{self, RegOp};
use cage::engine::Precompiled;
use cage::ir::passes::{self, PipelineConfig};
use cage::ir::{IrFunction, IrModule, LowerOptions, Stmt};
use cage::wasm::Module;
use cage::{Engine, HostProfile, InstancePre, OptPasses, Variant};

use crate::trace::Tracer;

/// The variant all workloads run under.
pub const VARIANT: Variant = Variant::CageFull;

/// The engine every workload uses: `variant` with the full IR optimiser
/// (`cagec --opt`).
#[must_use]
pub fn engine(variant: Variant) -> Engine {
    Engine::builder(variant)
        .opt_passes(OptPasses::full())
        .build()
}

/// A compiled module ready to template.
#[derive(Debug)]
pub struct Compiled {
    /// The validated wasm module.
    pub module: Module,
    /// First heap byte.
    pub heap_base: u64,
}

/// Compiles `source` through `Engine::compile` and templates it through
/// `Engine::instance_pre`, or, when `t` is recording, through the same
/// stages called one by one inside spans.
///
/// # Errors
///
/// The failing stage's error, rendered.
pub fn compile_and_template(
    engine: &Engine,
    source: &str,
    t: &mut Tracer,
) -> Result<Arc<InstancePre>, String> {
    let pre = if t.is_on() {
        let compiled = t.span("engine.compile", |t| compile_staged(engine, source, t))?;
        t.span("engine.instance_pre", |_| {
            InstancePre::with_limits(
                engine.variant(),
                engine.core(),
                &compiled.module,
                compiled.heap_base,
                HostProfile::Libc,
                &engine.compile_limits(),
            )
        })
        .map_err(|e| e.to_string())?
    } else {
        let artifact = engine.compile(source).map_err(|e| e.to_string())?;
        engine
            .instance_pre(&artifact, HostProfile::Libc)
            .map_err(|e| e.to_string())?
    };
    Ok(Arc::new(pre))
}

/// `Engine::compile`'s stages, each in its own span.
///
/// # Errors
///
/// The failing stage's error, rendered.
pub fn compile_staged(engine: &Engine, source: &str, t: &mut Tracer) -> Result<Compiled, String> {
    let limits = engine.compile_limits();
    let fuel = limits.fuel();
    let ptr_width = engine.variant().ptr_width();
    let ast = t
        .span("cc.parse", |_| cage::cc::parse_with(source, &limits, &fuel))
        .map_err(|e| e.to_string())?;
    let mut ir = t
        .span("cc.codegen", |_| {
            cage::cc::codegen::compile_ast_for_with(&ast, ptr_width.bytes(), &limits, &fuel)
        })
        .map_err(|e| e.to_string())?;
    t.span("ir.passes", |_| {
        passes::run_pipeline_config_fueled(&mut ir, &engine.pipeline(), &fuel)
    })
    .map_err(|e| e.to_string())?;
    let lowered = t
        .span("ir.lower", |_| {
            cage::ir::lower_with_limits(
                &ir,
                &LowerOptions {
                    ptr_width,
                    memory_pages: engine.memory_pages(),
                    stack_size: engine.stack_size(),
                },
                &limits,
                &fuel,
            )
        })
        .map_err(|e| e.to_string())?;
    t.span("wasm.validate", |_| {
        cage::wasm::validate_with_limits(&lowered.module, &limits, &fuel)
    })
    .map_err(|e| e.to_string())?;
    Ok(Compiled {
        module: lowered.module,
        heap_base: lowered.heap_base,
    })
}

/// Applies each pass of `config` to `ir` in pipeline order, one span per
/// pass (`ir.pass.<name>`). Passes other than `ptr_auth` transform one
/// function at a time, so running each over all functions before the
/// next gives the pipeline's result.
pub fn replay_passes(ir: &mut IrModule, config: &PipelineConfig, t: &mut Tracer) {
    fn each(ir: &mut IrModule, t: &mut Tracer, name: &'static str, pass: fn(&mut IrFunction)) {
        t.span(name, |_| ir.functions.iter_mut().for_each(pass));
    }
    if config.optimize {
        each(ir, t, "ir.pass.mem2reg", passes::mem2reg::run);
        each(ir, t, "ir.pass.const_fold", passes::const_fold::run);
        let opt = config.opt;
        if opt.cse {
            each(ir, t, "ir.pass.cse", passes::cse::run);
            each(ir, t, "ir.pass.const_fold", passes::const_fold::run);
        }
        if opt.simplify_cfg {
            each(ir, t, "ir.pass.simplify_cfg", passes::simplify_cfg::run);
        }
        if opt.load_forward {
            each(ir, t, "ir.pass.load_forward", passes::load_forward::run);
        }
        if opt.strength_reduce {
            each(
                ir,
                t,
                "ir.pass.strength_reduce",
                passes::strength_reduce::run,
            );
        }
        each(ir, t, "ir.pass.dce", passes::dce::run);
    }
    if config.harden.stack_safety {
        each(ir, t, "ir.pass.stack_safety", passes::stack_safety::run);
    }
    if config.harden.ptr_auth {
        t.span("ir.pass.ptr_auth", |_| passes::ptr_auth::run(ir));
    }
}

/// Statements in `ir`, nested ones included.
#[must_use]
pub fn count_stmts(ir: &IrModule) -> u64 {
    fn count(body: &[Stmt]) -> u64 {
        body.iter()
            .map(|s| {
                1 + match s {
                    Stmt::If { then, els, .. } => count(then) + count(els),
                    Stmt::While { header, body, .. } => count(header) + count(body),
                    _ => 0,
                }
            })
            .sum()
    }
    ir.functions.iter().map(|f| count(&f.body)).sum()
}

/// Deterministic sizes of one program's compile, summed over its
/// functions where they are per function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    /// IR statements after the pass pipeline.
    pub stmts_out: u64,
    /// Encoded wasm module size in bytes.
    pub module_bytes: u64,
    /// Register-code ops emitted.
    pub reg_ops: u64,
    /// Live intervals spilled by the register allocator.
    pub reg_spilled: u64,
    /// Register ops that bridge to the stack-op implementation.
    pub reg_bridge_ops: u64,
}

impl CompileCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CompileCounts) {
        self.stmts_out += other.stmts_out;
        self.module_bytes += other.module_bytes;
        self.reg_ops += other.reg_ops;
        self.reg_spilled += other.reg_spilled;
        self.reg_bridge_ops += other.reg_bridge_ops;
    }
}

/// Runs the compile of `source` again outside any timed operation, with
/// spans for the per-pass replay and the engine's two lowerings, and
/// checks the staged path against the real one.
///
/// # Errors
///
/// A compile error, or a description of the check that failed: the
/// replayed passes differ from the pipeline, or the staged module
/// differs from `Engine::compile`'s.
pub fn probe(engine: &Engine, source: &str, t: &mut Tracer) -> Result<CompileCounts, String> {
    t.span("probe", |t| {
        let limits = engine.compile_limits();
        let fuel = limits.fuel();
        let ast = cage::cc::parse_with(source, &limits, &fuel).map_err(|e| e.to_string())?;
        let mut piped = cage::cc::codegen::compile_ast_for_with(
            &ast,
            engine.variant().ptr_width().bytes(),
            &limits,
            &fuel,
        )
        .map_err(|e| e.to_string())?;
        let mut replayed = piped.clone();
        passes::run_pipeline_config_fueled(&mut piped, &engine.pipeline(), &fuel)
            .map_err(|e| e.to_string())?;
        t.span("ir.replay", |t| {
            replay_passes(&mut replayed, &engine.pipeline(), t)
        });
        if replayed != piped {
            return Err("replayed passes differ from run_pipeline_config_fueled".into());
        }

        let staged = compile_staged(engine, source, &mut Tracer::new(std::time::Instant::now()))?;
        let reference = engine.compile(source).map_err(|e| e.to_string())?;
        if staged.module != *reference.module() || staged.heap_base != reference.heap_base() {
            return Err("staged compile differs from Engine::compile".into());
        }
        let module = &staged.module;

        t.span("engine.precompile", |_| {
            Precompiled::with_limits(module, &limits)
        })
        .map_err(|e| e.to_string())?;
        let mut counts = CompileCounts {
            stmts_out: count_stmts(&piped),
            module_bytes: cage::wasm::binary::encode(module).len() as u64,
            ..CompileCounts::default()
        };
        let lower_fuel = limits.fuel();
        for f in &module.funcs {
            let ty = &module.types[f.type_idx as usize];
            t.span("engine.lower_stack", |_| {
                bytecode::try_compile(module, ty.results.len(), &f.body, &limits, &lower_fuel)
            })
            .map_err(|e| e.to_string())?;
            let reg = t
                .span("engine.lower_reg", |_| {
                    bytecode::try_compile_reg(
                        module,
                        ty,
                        f.locals.len(),
                        &f.body,
                        &limits,
                        &lower_fuel,
                    )
                })
                .map_err(|e| e.to_string())?;
            counts.reg_ops += reg.ops.len() as u64;
            counts.reg_spilled += u64::from(reg.spilled);
            counts.reg_bridge_ops += reg
                .ops
                .iter()
                .filter(|op| matches!(op, RegOp::Bridge(_)))
                .count() as u64;
        }
        Ok(counts)
    })
}
