//! Memory regression test for the register lowering on a long, branchy
//! body: lowering must stay O(defs + values + blocks) in memory.
//!
//! The body is `n` sequential one-armed `if`s, each adding a distinct
//! constant to an `i64` local, followed by a read of the local — about
//! 6 wasm ops, 2 blocks, 1 phi and 1 constant per `if`. A lowering that
//! keeps a blocks × values bitset (liveness) grows quadratically in
//! memory here: such a design took 3.4 s and +262 MiB peak RSS at
//! n = 8000 (release build, 2-vCPU guest), ×3.7 per doubling of n.
//!
//! The peak resident set (`VmHWM`) is process-wide, so this file holds a
//! single test and runs in its own process.
#![cfg(target_os = "linux")]

use std::time::Instant;

use cage_engine::Precompiled;
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{BlockType, CompileLimits, Instr, ValType};

const N: i64 = 8000;
/// The bound on peak-RSS growth while lowering the body.
const MAX_GROWTH_KIB: u64 = 32 * 1024;

fn sequential_ifs(n: i64) -> cage_wasm::Module {
    let mut body = Vec::with_capacity(2 * n as usize + 1);
    for k in 0..n {
        body.push(Instr::LocalGet(0));
        body.push(Instr::If(
            BlockType::Empty,
            vec![
                Instr::I64Const(1000 + k),
                Instr::LocalGet(1),
                Instr::I64Add,
                Instr::LocalSet(1),
            ],
            Vec::new(),
        ));
    }
    body.push(Instr::LocalGet(1));
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[ValType::I32], &[ValType::I64], &[ValType::I64], body);
    b.export_func("run", f);
    b.build()
}

/// Peak resident set size of this process, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

#[test]
fn eight_thousand_sequential_ifs_lower_in_bounded_memory() {
    let module = sequential_ifs(N);
    let before = vm_hwm_kib();
    let started = Instant::now();
    let pre = Precompiled::with_limits(&module, &CompileLimits::generous()).expect("lowers");
    let elapsed = started.elapsed();
    let growth = vm_hwm_kib().saturating_sub(before);
    drop(pre);
    eprintln!(
        "n = {N}: lowered in {:.1} ms, VmHWM +{:.1} MiB",
        elapsed.as_secs_f64() * 1e3,
        growth as f64 / 1024.0
    );
    assert!(
        growth < MAX_GROWTH_KIB,
        "lowering {N} sequential ifs grew the peak RSS by {growth} KiB \
         (bound {MAX_GROWTH_KIB} KiB)"
    );
}
