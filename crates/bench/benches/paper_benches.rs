//! Criterion wall-clock benchmarks: real host-side throughput of the
//! reproduction's components, one group per paper artefact.
//!
//! These complement the regeneration binaries: the binaries report
//! *simulated* Tensor G3 time (the paper's axis), while these measure the
//! actual Rust implementation on the host — allocator ops, MTE tag checks,
//! PAC signing, interpreter throughput per Table 3 variant.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cage::engine::memory::PAGE_SIZE;
use cage::engine::{Imports, Store};
use cage::mte::{AccessKind, MteMode, Tag, TagMemory};
use cage::pac::{PacKey, PacSigner, PointerLayout};
use cage::{Core, Engine, Value, Variant};

/// Fig. 14 analogue: interpreter throughput on gemm per variant.
fn bench_fig14_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_gemm");
    group.sample_size(10);
    let kernel = cage_polybench::kernel("gemm").expect("gemm");
    for variant in [
        Variant::BaselineWasm32,
        Variant::BaselineWasm64,
        Variant::CageMemSafety,
        Variant::CageSandboxing,
        Variant::CageFull,
    ] {
        let engine = Engine::new(variant);
        let artifact = engine.compile(kernel.source).expect("builds");
        group.bench_function(variant.label(), |b| {
            b.iter_batched(
                || engine.instantiate(&artifact).expect("instantiates"),
                |mut inst| inst.invoke("run", &[]).expect("runs"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Fig. 15 analogue: static vs dynamic vs authenticated dispatch.
fn bench_fig15_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_calls");
    group.sample_size(10);
    for (label, source, variant) in [
        (
            "static",
            cage_polybench::calls::TWO_MM_STATIC,
            Variant::BaselineWasm64,
        ),
        (
            "dynamic",
            cage_polybench::calls::TWO_MM_DYNAMIC,
            Variant::BaselineWasm64,
        ),
        (
            "ptr_auth",
            cage_polybench::calls::TWO_MM_DYNAMIC,
            Variant::CagePtrAuth,
        ),
    ] {
        let engine = Engine::new(variant);
        let artifact = engine.compile(source).expect("builds");
        group.bench_function(label, |b| {
            b.iter_batched(
                || engine.instantiate(&artifact).expect("instantiates"),
                |mut inst| inst.invoke("run", &[]).expect("runs"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Table 1 analogue: host cost of the MTE architectural operations.
fn bench_table1_mte_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_mte_ops");
    let mut mem = TagMemory::new(1 << 20, MteMode::Synchronous);
    let tag = Tag::new(5).expect("tag");
    mem.set_tag_range(0, 1 << 20, tag).expect("tag range");
    group.bench_function("check_access_hit", |b| {
        b.iter(|| mem.check_access(4096, 8, tag, AccessKind::Read));
    });
    group.bench_function("set_tag_range_4k", |b| {
        b.iter(|| mem.set_tag_range(8192, 4096, tag));
    });
    // The instantiation-time pre-tag of a 64-page linear memory (§7.2).
    let guest = 64 * PAGE_SIZE;
    let mut linear = TagMemory::new(guest, MteMode::Synchronous);
    group.bench_function("pretag_64_pages", |b| {
        b.iter(|| linear.set_tag_range(0, guest, tag));
    });
    group.finish();
}

/// Table 1 analogue: host cost of PAC sign/auth (SipHash-2-4 MAC).
fn bench_table1_pac(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_pac");
    let signer = PacSigner::new(PacKey::from_parts(1, 2), PointerLayout::MtePac, true);
    let signed = signer.sign(0x1000, 7);
    group.bench_function("pacda_sign", |b| b.iter(|| signer.sign(0x1000, 7)));
    group.bench_function("autda_auth", |b| b.iter(|| signer.auth(signed, 7)));
    group.finish();
}

/// §6.2 analogue: hardened allocator malloc/free round-trip.
fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.sample_size(20);
    let src = r#"
        long churn(long n) {
            for (long i = 0; i < n; i++) {
                char* p = malloc(64);
                p[0] = 'x';
                free(p);
            }
            return n;
        }
    "#;
    for variant in [Variant::BaselineWasm64, Variant::CageFull] {
        let engine = Engine::new(variant);
        let artifact = engine.compile(src).expect("builds");
        group.bench_function(variant.label(), |b| {
            b.iter_batched(
                || engine.instantiate(&artifact).expect("instantiates"),
                |mut inst| inst.invoke("churn", &[Value::I64(100)]).expect("runs"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// §7.2 analogue: instantiation (startup) cost, host-side.
fn bench_startup(c: &mut Criterion) {
    let mut group = c.benchmark_group("startup");
    group.sample_size(10);
    let engine = Engine::new(Variant::CageFull);
    let artifact = engine.compile("long f() { return 0; }").expect("builds");
    let module = artifact.module().clone();
    group.bench_function("instantiate_cage_full", |b| {
        b.iter_batched(
            || Store::new(Variant::CageFull.exec_config(Core::CortexX3)),
            |mut store| {
                store
                    .instantiate(&module, &Imports::new())
                    .map_err(|e| format!("{e}"))
                    .map(|_| ())
            },
            BatchSize::SmallInput,
        );
    });
    // Codec throughput: encode+decode the hardened module.
    let kernel = cage_polybench::kernel("2mm").expect("2mm");
    let big = engine.compile(kernel.source).expect("builds");
    group.bench_function("encode_decode_module", |b| {
        b.iter(|| {
            let bytes = big.wasm_bytes();
            cage::wasm::binary::decode(&bytes).expect("decodes")
        });
    });
    group.finish();
}

fn noop_config() -> Criterion {
    Criterion::default().without_plots()
}

criterion_group! {
    name = benches;
    config = noop_config();
    targets = bench_fig14_variants, bench_fig15_calls, bench_table1_mte_ops,
              bench_table1_pac, bench_allocator, bench_startup
}
criterion_main!(benches);
