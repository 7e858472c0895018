//! Register-bytecode regression gate: the emitted `RegCode` of every
//! defined function of the PolyBench kernels and the gallery programs
//! (`Variant::CageFull`, default and full-opt pipelines) must match the
//! golden capture — op count and a digest of the full disassembly.
//!
//! The cycle goldens pin what the bytecode *costs*; this one pins the
//! bytecode itself, so a lowering refactor that reorders slots, moves a
//! charge between ops or grows a spill fails here at a named function
//! even when no cycle moves. Regenerate with
//! `cargo run --release -p cage-bench --example golden_regcode` — only
//! when a lowering change *intends* to change the bytecode.

use cage_bench::regcode;

const GOLDEN: &str = include_str!("golden_regcode.tsv");

#[test]
fn register_bytecode_matches_golden() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.trim().is_empty()).collect();
    let rows = regcode::rows();
    let mut mismatches = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let got = row.to_tsv();
        match golden.get(i) {
            Some(&want) if want == got => {}
            Some(&want) => mismatches.push(format!("{}: golden `{want}`, got `{got}`", row.key())),
            None => mismatches.push(format!("{}: missing from golden (`{got}`)", row.key())),
        }
    }
    for extra in golden.iter().skip(rows.len()) {
        mismatches.push(format!("golden row no longer produced: `{extra}`"));
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} functions drifted from the register-bytecode golden:\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );
    // 28 programs x 2 pipelines, each with at least its exported entry;
    // never shrink silently.
    assert!(
        rows.len() >= 56,
        "golden unexpectedly small: {}",
        rows.len()
    );
}
