//! Prints the register-bytecode golden (`crates/bench/tests/golden_regcode.tsv`):
//! one row per defined function of the PolyBench kernels and the gallery
//! programs under `Variant::CageFull`, default and full-opt pipelines.
//!
//! Regenerate only when a lowering change *intends* to change the
//! emitted bytecode:
//! `cargo run --release -p cage-bench --example golden_regcode > crates/bench/tests/golden_regcode.tsv`
fn main() {
    for row in cage_bench::regcode::rows() {
        println!("{}", row.to_tsv());
    }
}
