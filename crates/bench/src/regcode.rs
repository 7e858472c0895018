//! The register-bytecode golden: one row per defined function of the
//! PolyBench kernels and the Table 2 gallery, compiled for
//! `Variant::CageFull` under the default and the full-opt pipeline.
//!
//! Each row pins `cage::engine::disassemble` for that function as an op
//! count plus a 64-bit FNV-1a digest of the whole listing (ops, slots,
//! hot/spill split, branch targets and charge recipes), so any change to
//! the emitted `RegCode` fails the gate at a named function. Regenerate
//! with `cargo run --release -p cage-bench --example golden_regcode` —
//! only when a lowering change *intends* to change the bytecode.

use cage::{Engine, OptPasses, Variant};

/// One function's pinned register bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegcodeRow {
    /// PolyBench kernel name or gallery CVE id.
    pub program: String,
    /// `default` or `full-opt`.
    pub pipeline: &'static str,
    /// Joint function index.
    pub func: u32,
    /// Export name, or `-` for an internal function.
    pub name: String,
    /// Register ops in the body.
    pub ops: usize,
    /// FNV-1a 64 of the disassembly text.
    pub digest: u64,
}

impl RegcodeRow {
    /// The golden file's tab-separated rendering.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{:016x}",
            self.program, self.pipeline, self.func, self.name, self.ops, self.digest
        )
    }

    /// The row's identity, as a failure message names it.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/func {} ({})",
            self.program, self.pipeline, self.func, self.name
        )
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The programs the golden covers, in file order: the 20 PolyBench
/// kernels, then the 8 gallery programs.
fn programs() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = cage_polybench::kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.source))
        .collect();
    out.extend(
        cage::gallery::cases()
            .into_iter()
            .map(|c| (c.cve.to_string(), c.source)),
    );
    out
}

/// The rows of one program under one pipeline, in function-index order.
///
/// # Panics
///
/// Panics when `source` fails to compile — golden inputs are trusted.
fn rows_for(program: &str, source: &str, pipeline: &'static str) -> Vec<RegcodeRow> {
    let mut builder = Engine::builder(Variant::CageFull);
    if pipeline == "full-opt" {
        builder = builder.opt_passes(OptPasses::full());
    }
    let artifact = builder
        .build()
        .compile(source)
        .unwrap_or_else(|e| panic!("{program}: golden input fails to compile: {e}"));
    let module = artifact.module();
    let imported = module.imported_func_count();
    (imported..imported + module.funcs.len() as u32)
        .map(|func| {
            let text = cage::engine::disassemble(module, func)
                .unwrap_or_else(|| panic!("{program}: func {func} has no bytecode"));
            let name = module
                .exports
                .iter()
                .find(|e| e.kind == cage::wasm::ExportKind::Func(func))
                .map_or_else(|| "-".to_string(), |e| e.name.clone());
            RegcodeRow {
                program: program.to_string(),
                pipeline,
                func,
                name,
                // Every line after the header is one op.
                ops: text.lines().count() - 1,
                digest: fnv1a64(text.as_bytes()),
            }
        })
        .collect()
}

/// Every golden row: each program under `default`, then `full-opt`.
#[must_use]
pub fn rows() -> Vec<RegcodeRow> {
    let programs = programs();
    ["default", "full-opt"]
        .into_iter()
        .flat_map(|pipeline| {
            programs
                .iter()
                .flat_map(move |(name, source)| rows_for(name, source, pipeline))
        })
        .collect()
}
