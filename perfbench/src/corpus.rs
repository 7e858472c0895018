//! The programs the workloads run and the references their results are
//! checked against. No reference comes from the compiler under test:
//! PolyBench checksums come from each kernel's native Rust twin, the
//! request handler from a Rust model of its C, and the gallery from
//! values read off the C sources by hand.

use cage::gallery;
use cage::{Trap, Value};

/// The `serve_load` request handler: allocator churn plus a memory sweep.
pub const HANDLER: &str = r#"
    long handle(long req) {
        long n = 16 + (req % 16);
        long* buf = (long*)malloc(n * 8);
        long acc = 0;
        for (long i = 0; i < n; i++) {
            buf[i] = req * 31 + i;
        }
        for (long i = 0; i < n; i++) {
            acc = acc + buf[i];
        }
        free((char*)buf);
        return acc;
    }
"#;

/// Rust model of [`HANDLER`]'s `handle` for `req ≥ 0`.
#[must_use]
pub fn handle_model(req: i64) -> i64 {
    let n = 16 + req % 16;
    (0..n).fold(0i64, |acc, i| {
        acc.wrapping_add(req.wrapping_mul(31).wrapping_add(i))
    })
}

/// The export appended to each PolyBench source on `cold-start`, so the
/// first result costs almost nothing to compute.
pub const PROBE_EXPORT: &str = "\nlong perfbench_probe(long x) { return x * 3 + 7; }\n";

/// What [`PROBE_EXPORT`] returns for `x`.
#[must_use]
pub fn probe_model(x: i64) -> i64 {
    x * 3 + 7
}

/// The Cage trap an attack (`run(1)`) on a gallery program must end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedTrap {
    /// An MTE tag-check fault.
    TagCheck,
    /// A segment fault (the double free of CVE-2019-11932).
    SegmentFault,
}

impl ExpectedTrap {
    /// Whether `trap` is this kind.
    #[must_use]
    pub fn matches(self, trap: &Trap) -> bool {
        match self {
            ExpectedTrap::TagCheck => matches!(trap, Trap::TagCheck(_)),
            ExpectedTrap::SegmentFault => matches!(trap, Trap::SegmentFault { .. }),
        }
    }
}

/// One Table 2 gallery program with its references.
#[derive(Debug, Clone, Copy)]
pub struct GalleryProgram {
    /// CVE identifier.
    pub cve: &'static str,
    /// C source exporting `long run(long trigger)`.
    pub source: &'static str,
    /// `run(0)`, read off the C source.
    pub benign: i64,
    /// The trap `run(1)` must raise under Cage.
    pub attack: ExpectedTrap,
}

/// `run(0)` and the `run(1)` trap for each gallery CVE, read off the C.
const GALLERY_REFERENCE: [(&str, i64, ExpectedTrap); 8] = [
    // secret[0] = 'K'
    ("CVE-2023-4863", 75, ExpectedTrap::TagCheck),
    // 16 × 'p' (112)
    ("CVE-2014-0160", 1792, ExpectedTrap::TagCheck),
    // buf[0] = '/'
    ("CVE-2021-3999", 47, ExpectedTrap::TagCheck),
    // chunk[0] + state[0] = 'A' + 'x'
    ("CVE-2018-14550", 185, ExpectedTrap::TagCheck),
    // session[0] = 1234
    ("CVE-2021-22940", 1234, ExpectedTrap::TagCheck),
    // on_event(21) = 42
    ("CVE-2021-33574", 42, ExpectedTrap::TagCheck),
    // fresh[0] = 'f'
    ("CVE-2020-1752", 102, ExpectedTrap::TagCheck),
    // frame[0] = 'g'
    ("CVE-2019-11932", 103, ExpectedTrap::SegmentFault),
];

/// The eight gallery programs, in Table 2 order.
///
/// # Panics
///
/// When the gallery holds a CVE this table has no reference for.
#[must_use]
pub fn gallery_programs() -> Vec<GalleryProgram> {
    gallery::cases()
        .into_iter()
        .map(|case| {
            let &(_, benign, attack) = GALLERY_REFERENCE
                .iter()
                .find(|(cve, ..)| *cve == case.cve)
                .unwrap_or_else(|| panic!("no reference for {}", case.cve));
            GalleryProgram {
                cve: case.cve,
                source: case.source,
                benign,
                attack,
            }
        })
        .collect()
}

/// A call and the outcome it must have.
#[derive(Debug, Clone)]
pub struct Call {
    /// Export to invoke.
    pub export: &'static str,
    /// Arguments.
    pub args: Vec<Value>,
    /// What the call must return or raise.
    pub expect: Expect,
}

/// The outcome a [`Call`] must have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// One `i64` result.
    I64(i64),
    /// One `f64` result, bit for bit.
    F64Bits(u64),
    /// A Cage trap of this kind.
    Trap(ExpectedTrap),
}

impl Call {
    /// Whether `outcome` is what this call must produce.
    #[must_use]
    pub fn check(&self, outcome: &Result<Vec<Value>, Trap>) -> bool {
        match (self.expect, outcome) {
            (Expect::I64(want), Ok(v)) => matches!(v.as_slice(), [Value::I64(got)] if *got == want),
            (Expect::F64Bits(want), Ok(v)) => {
                matches!(v.as_slice(), [Value::F64(got)] if got.to_bits() == want)
            }
            (Expect::Trap(kind), Err(trap)) => kind.matches(trap),
            _ => false,
        }
    }
}
