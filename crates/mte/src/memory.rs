//! Tag memory: the architectural tag-PA-space model.
//!
//! Real MTE stores one 4-bit tag per 16-byte granule in a dedicated physical
//! address space invisible to the OS (§7.3: "Tags are stored in a separate
//! physical address space, the tag PA space"). [`TagMemory`] models that
//! space for a contiguous region (a WASM linear memory or a whole simulated
//! process address space) plus the check machinery for the four MTE modes.

use std::ops::Range;

use crate::fault::{AccessKind, TagCheckFault};
use crate::tag::{Tag, TagError, GRANULE_SIZE};

/// The MTE check mode, per-thread state on real hardware (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MteMode {
    /// No tag checks are performed.
    Disabled,
    /// A mismatch faults immediately; the access does not take effect.
    #[default]
    Synchronous,
    /// A mismatch sets a cumulative flag (TFSR) checked later; the access
    /// itself completes.
    Asynchronous,
    /// Reads are checked asynchronously, writes synchronously.
    Asymmetric,
}

impl MteMode {
    /// Whether an access of `kind` is checked synchronously in this mode.
    #[must_use]
    pub fn is_sync_for(self, kind: AccessKind) -> bool {
        match self {
            MteMode::Disabled => false,
            MteMode::Synchronous => true,
            MteMode::Asynchronous => false,
            MteMode::Asymmetric => kind == AccessKind::Write,
        }
    }

    /// Whether tag checks happen at all.
    #[must_use]
    pub fn checks_enabled(self) -> bool {
        self != MteMode::Disabled
    }
}

/// Tag storage and checking for a contiguous byte range `[0, size)`.
///
/// Freshly created memory carries [`Tag::ZERO`] everywhere, matching the
/// kernel's zero-initialised tag pages. All tag manipulation must be
/// 16-byte aligned, as on hardware.
#[derive(Debug, Clone)]
pub struct TagMemory {
    /// One nibble per granule, two granules per byte (low nibble = even
    /// granule), so the tag store is 1/32 of the data size — the same
    /// overhead ratio the paper uses in §7.3.
    nibbles: Vec<u8>,
    size: u64,
    mode: MteMode,
    /// TFSR-style sticky fault for asynchronous reporting.
    pending_async: Option<TagCheckFault>,
    /// Statistics: checks performed (used by the cost model and tests).
    checks: u64,
}

impl TagMemory {
    /// Creates tag storage for `size` bytes, all granules tagged zero.
    #[must_use]
    pub fn new(size: u64, mode: MteMode) -> Self {
        let granules = size.div_ceil(GRANULE_SIZE as u64);
        TagMemory {
            nibbles: vec![0; granules.div_ceil(2) as usize],
            size,
            mode,
            pending_async: None,
            checks: 0,
        }
    }

    /// The byte size covered by this tag store.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Grows the covered region to `new_size` bytes; new granules are
    /// tagged zero (as with `mmap`-fresh pages).
    pub fn grow(&mut self, new_size: u64) {
        assert!(new_size >= self.size, "TagMemory cannot shrink");
        let granules = new_size.div_ceil(GRANULE_SIZE as u64);
        self.nibbles.resize(granules.div_ceil(2) as usize, 0);
        self.size = new_size;
    }

    /// The current check mode.
    #[must_use]
    pub fn mode(&self) -> MteMode {
        self.mode
    }

    /// Switches the check mode (models `prctl` reconfiguration).
    pub fn set_mode(&mut self, mode: MteMode) {
        self.mode = mode;
    }

    /// Number of tag checks performed so far.
    #[must_use]
    pub fn check_count(&self) -> u64 {
        self.checks
    }

    /// Whether `other` holds the same architectural state: size, mode,
    /// every granule's tag and the pending asynchronous fault. The check
    /// counter is statistics, not state, and is ignored (a recycled
    /// instance legitimately counts its previous tenant's checks).
    #[must_use]
    pub fn state_eq(&self, other: &TagMemory) -> bool {
        self.size == other.size
            && self.mode == other.mode
            && self.pending_async == other.pending_async
            && self.nibbles == other.nibbles
    }

    fn granule_index(addr: u64) -> usize {
        (addr / GRANULE_SIZE as u64) as usize
    }

    /// Reads the tag of the granule containing `addr` (models `ldg`).
    ///
    /// Returns `None` when `addr` is outside the covered region.
    #[must_use]
    pub fn tag_at(&self, addr: u64) -> Option<Tag> {
        if addr >= self.size {
            return None;
        }
        Some(self.granule(Self::granule_index(addr)))
    }

    fn granule(&self, idx: usize) -> Tag {
        let byte = self.nibbles[idx / 2];
        Tag::from_low_bits(if idx.is_multiple_of(2) {
            byte
        } else {
            byte >> 4
        })
    }

    fn set_granule(&mut self, idx: usize, tag: Tag) {
        let byte = &mut self.nibbles[idx / 2];
        if idx.is_multiple_of(2) {
            *byte = (*byte & 0xF0) | tag.value();
        } else {
            *byte = (*byte & 0x0F) | (tag.value() << 4);
        }
    }

    /// The first granule in `[g0, g1)` whose tag is not `tag`, in
    /// ascending order. Whole body bytes are compared against the doubled
    /// nibble; only a mismatching byte is opened up to find which of its
    /// two granules differs first.
    fn first_mismatching_granule(&self, g0: usize, g1: usize, tag: Tag) -> Option<usize> {
        let split = GranuleSplit::new(g0, g1);
        let differs = |&g: &usize| self.granule(g) != tag;
        if let Some(g) = split.head.filter(differs) {
            return Some(g);
        }
        let doubled = tag.value() * 0x11;
        if let Some(i) = self.nibbles[split.body.clone()]
            .iter()
            .position(|&b| b != doubled)
        {
            let g = 2 * (split.body.start + i);
            return Some(if differs(&g) { g } else { g + 1 });
        }
        split.tail.filter(differs)
    }

    /// Tags `[addr, addr + len)` with `tag` (models a `stg` loop / `st2g`).
    ///
    /// # Errors
    ///
    /// * [`TagError::Unaligned`]`(addr)` if `addr` is not 16-byte aligned.
    /// * [`TagError::Unaligned`]`(len)` if `len` is not 16-byte aligned.
    /// * [`TagError::OutOfRange`]`(0)` if the range overflows or ends past
    ///   [`TagMemory::size`].
    ///
    /// Nothing is tagged when an error is returned.
    pub fn set_tag_range(&mut self, addr: u64, len: u64, tag: Tag) -> Result<(), TagError> {
        if !addr.is_multiple_of(GRANULE_SIZE as u64) {
            return Err(TagError::Unaligned(addr));
        }
        if !len.is_multiple_of(GRANULE_SIZE as u64) {
            return Err(TagError::Unaligned(len));
        }
        let end = match addr.checked_add(len) {
            Some(end) if end <= self.size => end,
            _ => return Err(TagError::OutOfRange(0)),
        };
        // One bytewise fill with the doubled nibble for the body; the
        // edges are single nibble writes.
        let split = GranuleSplit::new(Self::granule_index(addr), Self::granule_index(end));
        if let Some(g) = split.head {
            self.set_granule(g, tag);
        }
        self.nibbles[split.body].fill(tag.value() * 0x11);
        if let Some(g) = split.tail {
            self.set_granule(g, tag);
        }
        Ok(())
    }

    /// Extracts the common tag of `[addr, addr + len)` — the paper's
    /// `s_tag(i, addr, len)` auxiliary (Fig. 11). Returns `None` if the
    /// range is out of bounds or the granules disagree.
    #[must_use]
    pub fn range_tag(&self, addr: u64, len: u64) -> Option<Tag> {
        if len == 0 {
            return self.tag_at(addr);
        }
        let last = addr.checked_add(len - 1)?;
        if last >= self.size {
            return None;
        }
        let g0 = Self::granule_index(addr);
        let first = self.granule(g0);
        self.first_mismatching_granule(g0 + 1, Self::granule_index(last) + 1, first)
            .is_none()
            .then_some(first)
    }

    /// Performs the lock-and-key check for an access of `len` bytes at
    /// `addr` through a pointer carrying `ptr_tag`.
    ///
    /// Returns `Ok(())` when the access is architecturally allowed to
    /// proceed *and* no synchronous fault is raised. In asynchronous modes a
    /// mismatch records a pending fault (retrievable via
    /// [`TagMemory::take_async_fault`]) and still returns `Ok(())`, because
    /// the access itself completes — exactly the behaviour that makes async
    /// mode cheaper but weaker (§2.3).
    ///
    /// # Errors
    ///
    /// Returns the [`TagCheckFault`] for synchronous mismatches.
    pub fn check_access(
        &mut self,
        addr: u64,
        len: u64,
        ptr_tag: Tag,
        kind: AccessKind,
    ) -> Result<(), TagCheckFault> {
        if !self.mode.checks_enabled() {
            return Ok(());
        }
        self.checks += 1;
        let mismatch_at = self.first_mismatch(addr, len, ptr_tag);
        let Some((fault_addr, mem_tag)) = mismatch_at else {
            return Ok(());
        };
        let fault = TagCheckFault {
            addr: fault_addr,
            ptr_tag,
            mem_tag,
            access: kind,
            asynchronous: !self.mode.is_sync_for(kind),
        };
        if self.mode.is_sync_for(kind) {
            Err(fault)
        } else {
            // TFSR accumulates; the first fault wins (it is sticky).
            self.pending_async.get_or_insert(fault);
            Ok(())
        }
    }

    fn first_mismatch(&self, addr: u64, len: u64, ptr_tag: Tag) -> Option<(u64, Option<Tag>)> {
        let len = len.max(1);
        let last = match addr.checked_add(len - 1) {
            Some(l) => l,
            None => return Some((addr, None)),
        };
        if last >= self.size {
            return Some((addr.max(self.size), None));
        }
        let (g0, g_last) = (Self::granule_index(addr), Self::granule_index(last));
        // Nearly every checked access (a scalar load or store) lies in
        // one granule: compare its nibble without splitting the range.
        let g = if g0 == g_last {
            (self.granule(g0) != ptr_tag).then_some(g0)
        } else {
            self.first_mismatching_granule(g0, g_last + 1, ptr_tag)
        }?;
        let g_addr = (g * GRANULE_SIZE) as u64;
        Some((g_addr.max(addr), Some(self.granule(g))))
    }

    /// Takes the pending asynchronous fault, if any (models the kernel
    /// checking TFSR at the next context switch).
    pub fn take_async_fault(&mut self) -> Option<TagCheckFault> {
        self.pending_async.take()
    }

    /// Whether an asynchronous fault is pending.
    #[must_use]
    pub fn has_async_fault(&self) -> bool {
        self.pending_async.is_some()
    }
}

/// A granule range `[g0, g1)` split along the packed-nibble layout
/// (granule `2i` in the low nibble of byte `i`, granule `2i + 1` in its
/// high nibble): an odd `head` granule sharing its byte with `g0 - 1`, a
/// `body` of whole bytes whose two granules both lie in the range, and an
/// even `tail` granule sharing its byte with `g1`. Body bytes can be
/// filled and compared whole; only the edges need nibble masking.
struct GranuleSplit {
    head: Option<usize>,
    body: Range<usize>,
    tail: Option<usize>,
}

impl GranuleSplit {
    fn new(g0: usize, g1: usize) -> Self {
        let head = (!g0.is_multiple_of(2) && g0 < g1).then_some(g0);
        let start = g0 + usize::from(head.is_some());
        let tail = (!g1.is_multiple_of(2) && start < g1).then(|| g1 - 1);
        GranuleSplit {
            head,
            body: start / 2..g1 / 2,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(mode: MteMode) -> TagMemory {
        TagMemory::new(1024, mode)
    }

    #[test]
    fn fresh_memory_is_zero_tagged() {
        let m = mem(MteMode::Synchronous);
        assert_eq!(m.tag_at(0), Some(Tag::ZERO));
        assert_eq!(m.tag_at(1023), Some(Tag::ZERO));
        assert_eq!(m.tag_at(1024), None);
    }

    #[test]
    fn set_and_read_tags() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(0xA).unwrap();
        m.set_tag_range(32, 48, t).unwrap();
        assert_eq!(m.tag_at(31), Some(Tag::ZERO));
        assert_eq!(m.tag_at(32), Some(t));
        assert_eq!(m.tag_at(79), Some(t));
        assert_eq!(m.tag_at(80), Some(Tag::ZERO));
    }

    #[test]
    fn set_tag_range_enforces_alignment() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(1).unwrap();
        assert_eq!(m.set_tag_range(8, 16, t), Err(TagError::Unaligned(8)));
        assert_eq!(m.set_tag_range(16, 8, t), Err(TagError::Unaligned(8)));
    }

    #[test]
    fn set_tag_range_enforces_bounds() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(1).unwrap();
        assert!(m.set_tag_range(1008, 32, t).is_err());
        assert!(m.set_tag_range(u64::MAX - 15, 16, t).is_err());
    }

    #[test]
    fn matching_access_passes() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(5).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        assert!(m.check_access(3, 8, t, AccessKind::Read).is_ok());
        assert!(m.check_access(48, 16, t, AccessKind::Write).is_ok());
    }

    #[test]
    fn sync_mismatch_faults_with_details() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(5).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        let fault = m
            .check_access(16, 4, Tag::new(6).unwrap(), AccessKind::Write)
            .unwrap_err();
        assert_eq!(fault.addr, 16);
        assert_eq!(fault.mem_tag, Some(t));
        assert!(!fault.asynchronous);
    }

    #[test]
    fn access_straddling_boundary_checks_every_granule() {
        // Off-by-one overflow across an allocation boundary: the classic
        // spatial violation MTE must catch (Fig. 2).
        let mut m = mem(MteMode::Synchronous);
        let a = Tag::new(5).unwrap();
        let b = Tag::new(9).unwrap();
        m.set_tag_range(0, 32, a).unwrap();
        m.set_tag_range(32, 32, b).unwrap();
        // 8-byte write starting at 28 touches granule 1 (tag a) and 2 (tag b).
        let fault = m.check_access(28, 8, a, AccessKind::Write).unwrap_err();
        assert_eq!(fault.mem_tag, Some(b));
        assert_eq!(fault.addr, 32);
    }

    #[test]
    fn async_mode_defers_fault_and_lets_access_complete() {
        let mut m = mem(MteMode::Asynchronous);
        let t = Tag::new(5).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        assert!(m
            .check_access(0, 4, Tag::new(1).unwrap(), AccessKind::Write)
            .is_ok());
        assert!(m.has_async_fault());
        let fault = m.take_async_fault().unwrap();
        assert!(fault.asynchronous);
        assert!(!m.has_async_fault());
    }

    #[test]
    fn async_fault_is_sticky_first_wins() {
        let mut m = mem(MteMode::Asynchronous);
        m.set_tag_range(0, 32, Tag::new(2).unwrap()).unwrap();
        m.check_access(0, 1, Tag::new(1).unwrap(), AccessKind::Read)
            .unwrap();
        m.check_access(16, 1, Tag::new(3).unwrap(), AccessKind::Read)
            .unwrap();
        let fault = m.take_async_fault().unwrap();
        assert_eq!(fault.ptr_tag.value(), 1, "first fault is sticky");
    }

    #[test]
    fn asymmetric_mode_sync_on_write_async_on_read() {
        let mut m = mem(MteMode::Asymmetric);
        m.set_tag_range(0, 32, Tag::new(2).unwrap()).unwrap();
        let bad = Tag::new(9).unwrap();
        assert!(m.check_access(0, 1, bad, AccessKind::Read).is_ok());
        assert!(m.has_async_fault());
        assert!(m.check_access(0, 1, bad, AccessKind::Write).is_err());
    }

    #[test]
    fn disabled_mode_never_faults_nor_counts() {
        let mut m = mem(MteMode::Disabled);
        m.set_tag_range(0, 32, Tag::new(2).unwrap()).unwrap();
        assert!(m
            .check_access(0, 1, Tag::new(9).unwrap(), AccessKind::Write)
            .is_ok());
        assert_eq!(m.check_count(), 0);
        assert!(!m.has_async_fault());
    }

    #[test]
    fn out_of_bounds_access_faults_even_with_zero_tag() {
        let mut m = mem(MteMode::Synchronous);
        let fault = m
            .check_access(2048, 4, Tag::ZERO, AccessKind::Read)
            .unwrap_err();
        assert_eq!(fault.mem_tag, None);
    }

    #[test]
    fn range_tag_agrees_and_disagrees() {
        let mut m = mem(MteMode::Synchronous);
        let t = Tag::new(4).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        assert_eq!(m.range_tag(0, 64), Some(t));
        assert_eq!(m.range_tag(8, 16), Some(t));
        assert_eq!(m.range_tag(48, 32), None, "crosses into zero-tagged area");
        assert_eq!(m.range_tag(2048, 4), None, "out of bounds");
    }

    #[test]
    fn grow_extends_with_zero_tags() {
        let mut m = mem(MteMode::Synchronous);
        m.set_tag_range(1008, 16, Tag::new(3).unwrap()).unwrap();
        m.grow(2048);
        assert_eq!(m.tag_at(1008), Some(Tag::new(3).unwrap()));
        assert_eq!(m.tag_at(1024), Some(Tag::ZERO));
        assert_eq!(m.size(), 2048);
    }

    #[test]
    fn zero_length_check_is_a_point_check() {
        let mut m = mem(MteMode::Synchronous);
        m.set_tag_range(0, 16, Tag::new(1).unwrap()).unwrap();
        assert!(m
            .check_access(0, 0, Tag::new(1).unwrap(), AccessKind::Read)
            .is_ok());
        assert!(m
            .check_access(0, 0, Tag::new(2).unwrap(), AccessKind::Read)
            .is_err());
    }

    /// One `Tag` per granule, checked granule by granule: the reference
    /// the packed-nibble kernels must agree with.
    struct Reference {
        tags: Vec<Tag>,
        size: u64,
        mode: MteMode,
        pending_async: Option<TagCheckFault>,
    }

    impl Reference {
        fn new(size: u64, mode: MteMode) -> Self {
            Reference {
                tags: vec![Tag::ZERO; size.div_ceil(16) as usize],
                size,
                mode,
                pending_async: None,
            }
        }

        fn tag_at(&self, addr: u64) -> Option<Tag> {
            (addr < self.size).then(|| self.tags[(addr / 16) as usize])
        }

        fn set_tag_range(&mut self, addr: u64, len: u64, tag: Tag) -> Result<(), TagError> {
            if !addr.is_multiple_of(16) {
                return Err(TagError::Unaligned(addr));
            }
            if !len.is_multiple_of(16) {
                return Err(TagError::Unaligned(len));
            }
            if addr.checked_add(len).is_none_or(|end| end > self.size) {
                return Err(TagError::OutOfRange(0));
            }
            for g in addr / 16..(addr + len) / 16 {
                self.tags[g as usize] = tag;
            }
            Ok(())
        }

        fn range_tag(&self, addr: u64, len: u64) -> Option<Tag> {
            let last = addr.checked_add(len.max(1) - 1)?;
            self.tag_at(last)?;
            let first = self.tag_at(addr)?;
            (addr / 16..=last / 16)
                .all(|g| self.tags[g as usize] == first)
                .then_some(first)
        }

        fn check_access(
            &mut self,
            addr: u64,
            len: u64,
            ptr_tag: Tag,
            kind: AccessKind,
        ) -> Result<(), TagCheckFault> {
            if self.mode == MteMode::Disabled {
                return Ok(());
            }
            let last = addr.checked_add(len.max(1) - 1);
            let (fault_addr, mem_tag) = match last {
                None => (addr, None),
                Some(last) if last >= self.size => (addr.max(self.size), None),
                Some(last) => {
                    let Some(g) =
                        (addr / 16..=last / 16).find(|&g| self.tags[g as usize] != ptr_tag)
                    else {
                        return Ok(());
                    };
                    ((g * 16).max(addr), Some(self.tags[g as usize]))
                }
            };
            let asynchronous = !self.mode.is_sync_for(kind);
            let fault = TagCheckFault {
                addr: fault_addr,
                ptr_tag,
                mem_tag,
                access: kind,
                asynchronous,
            };
            if asynchronous {
                self.pending_async.get_or_insert(fault);
                Ok(())
            } else {
                Err(fault)
            }
        }
    }

    const MODES: [MteMode; 4] = [
        MteMode::Disabled,
        MteMode::Synchronous,
        MteMode::Asynchronous,
        MteMode::Asymmetric,
    ];

    fn assert_same_tags(m: &TagMemory, r: &Reference, context: &str) {
        for g in 0..r.tags.len() as u64 {
            assert_eq!(m.tag_at(g * 16), r.tag_at(g * 16), "{context}: granule {g}");
        }
        assert_eq!(m.tag_at(r.size), None, "{context}: one past the end");
    }

    #[test]
    fn every_granule_range_matches_the_reference() {
        // 9 and 10 granules: the last granule is a lone low nibble in the
        // first, a high nibble in the second. Every [g0, g1) pair covers
        // odd and even heads and tails, empty, one-granule and full ranges.
        for granules in [9u64, 10] {
            let size = granules * 16;
            for g0 in 0..=granules {
                for g1 in g0..=granules {
                    let (addr, len) = (g0 * 16, (g1 - g0) * 16);
                    let mut m = TagMemory::new(size, MteMode::Synchronous);
                    let mut r = Reference::new(size, MteMode::Synchronous);
                    let (base, tag) = (Tag::new(0xC).unwrap(), Tag::new(0x5).unwrap());
                    m.set_tag_range(0, size, base).unwrap();
                    r.set_tag_range(0, size, base).unwrap();
                    m.set_tag_range(addr, len, tag).unwrap();
                    r.set_tag_range(addr, len, tag).unwrap();
                    let context = format!("size {size}, range [{g0}, {g1})");
                    assert_same_tags(&m, &r, &context);
                    for (a, l) in [
                        (addr, len),
                        (0, size),
                        (addr, len + 16),
                        (addr.saturating_sub(16), len + 16),
                    ] {
                        assert_eq!(
                            m.range_tag(a, l),
                            r.range_tag(a, l),
                            "{context}: range_tag({a}, {l})"
                        );
                        for t in [base, tag] {
                            assert_eq!(
                                m.clone().check_access(a, l, t, AccessKind::Write),
                                r.check_access(a, l, t, AccessKind::Write),
                                "{context}: check_access({a}, {l}, {t})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A range biased towards the interesting cases: empty and
    /// one-granule lengths, runs reaching the end, unaligned starts and
    /// lengths, and ranges past the end or wrapping the address space.
    fn draw_range(rng: &mut impl rand::Rng, size: u64) -> (u64, u64) {
        let granules = size.div_ceil(16);
        let mut addr = rng.next_u64() % (granules + 2) * 16;
        let mut len = 16
            * match rng.next_u64() % 5 {
                0 => 0,
                1 => 1,
                2 => rng.next_u64() % 4,
                3 => granules.saturating_sub(addr / 16),
                _ => rng.next_u64() % (granules + 2),
            };
        match rng.next_u64() % 10 {
            0 => addr += 1 + rng.next_u64() % 15,
            1 => len += 1 + rng.next_u64() % 15,
            2 => addr = u64::MAX - rng.next_u64() % 64,
            _ => {}
        }
        (addr, len)
    }

    #[test]
    fn random_sequences_match_the_reference_in_every_mode() {
        use rand::{Rng, SeedableRng};
        for seed in 0..64u64 {
            // Odd and even granule counts, and a size that ends inside a
            // granule.
            let size = [1024, 1040, 1000][(seed % 3) as usize];
            for mode in MODES {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut m = TagMemory::new(size, mode);
                let mut r = Reference::new(size, mode);
                for step in 0..200 {
                    let context = format!("seed {seed}, {mode:?}, step {step}");
                    let (addr, len) = draw_range(&mut rng, size);
                    let tag = Tag::from_low_bits(rng.gen());
                    match rng.next_u64() % 4 {
                        0 | 1 => assert_eq!(
                            m.set_tag_range(addr, len, tag),
                            r.set_tag_range(addr, len, tag),
                            "{context}: set_tag_range({addr}, {len})"
                        ),
                        2 => assert_eq!(
                            m.range_tag(addr, len),
                            r.range_tag(addr, len),
                            "{context}: range_tag({addr}, {len})"
                        ),
                        _ => {
                            // Accesses start at any byte, not just granules.
                            let addr = addr.wrapping_add(rng.next_u64() % 16);
                            let kind = if rng.gen() {
                                AccessKind::Read
                            } else {
                                AccessKind::Write
                            };
                            assert_eq!(
                                m.check_access(addr, len, tag, kind),
                                r.check_access(addr, len, tag, kind),
                                "{context}: check_access({addr}, {len}, {tag}, {kind})"
                            );
                            if rng.next_u64() % 4 == 0 {
                                assert_eq!(
                                    m.take_async_fault(),
                                    r.pending_async.take(),
                                    "{context}: async fault"
                                );
                            }
                        }
                    }
                }
                assert_same_tags(&m, &r, &format!("seed {seed}, {mode:?}"));
                assert_eq!(m.take_async_fault(), r.pending_async.take());
            }
        }
    }
}
