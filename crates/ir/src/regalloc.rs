//! Liveness analysis and linear-scan slot assignment for the register
//! bytecode tier.
//!
//! The client linearises its program into monotonically increasing
//! positions, describes the CFG as position ranges with successor lists,
//! and reports every value read/write as a [`ValueRef`], grouped by
//! block. Liveness solves the classic backward gen/kill equations —
//! `live_in[b] = gen[b] ∪ (live_out[b] − kill[b])`, `live_out[b] =
//! ∪ live_in[succ]` — one value at a time: from each block where the
//! value is used before any definition, a backward walk over
//! predecessors marks blocks live-out, and live-in too unless they
//! define the value. Visited marks are stamps in two reusable
//! per-block arrays, so the analysis costs O(refs + values + blocks)
//! memory and time proportional to the liveness it finds, never a
//! blocks × values bitset. Intervals are the conservative convex hull
//! `[min, max]` of every position where the value is referenced or live
//! across a block boundary — loops are handled exactly (a value live
//! into a loop header is live out of the back-edge block, which extends
//! its hull over the whole loop body).
//!
//! [`linear_scan`] then assigns each interval a frame slot, with the
//! active set and both free lists in min-heaps: the first `hot` slots
//! model the register file a later JIT tier would map to machine
//! registers; overflow intervals get *spill* slots above the hot
//! watermark. In the interpreter both regions are plain frame slots with
//! identical access cost — the distinction is recorded (and shown by the
//! disassembler) because it is the contract the native tier will
//! inherit, not because the interpreter pays for it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cage_wasm::LimitError;

/// One read or write of a value at a linearised position.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef {
    /// Linear position of the instruction.
    pub pos: u32,
    /// The value referenced.
    pub value: u32,
    /// `true` for a definition (write), `false` for a use (read).
    pub is_def: bool,
}

/// One basic block as a closed position range.
#[derive(Debug, Clone, Copy)]
pub struct BlockRange {
    /// Position of the block's first instruction.
    pub start: u32,
    /// Position of the block's last instruction (== `start` when empty).
    pub end: u32,
}

/// Liveness problem description. Positions must be globally unique and
/// increasing in block-layout order.
#[derive(Debug, Clone, Default)]
pub struct LivenessInput {
    /// Number of values (ids are `0..num_values`).
    pub num_values: u32,
    /// The blocks in layout order.
    pub blocks: Vec<BlockRange>,
    /// The CFG edges `(from, to)`, as indices into `blocks`.
    pub edges: Vec<(u32, u32)>,
    /// Every value reference, grouped by block in layout order (in any
    /// order within a block). A reference belongs to the first block
    /// whose range ends at or after its position; positions past the
    /// last block count in the last block. At one position, uses are
    /// read before definitions.
    pub refs: Vec<ValueRef>,
}

/// A conservative live interval over linearised positions, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First position at which the value may be live.
    pub start: u32,
    /// Last position at which the value may be live.
    pub end: u32,
}

/// Compressed adjacency: `targets[offsets[i]..offsets[i + 1]]` are the
/// entries of row `i`.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Groups `(row, target)` pairs by row (a row's entries come out in
    /// reverse order).
    fn new(rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        // Row ends first; filling each row from its end leaves
        // `offsets[i]` at the row's start.
        let mut offsets = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            offsets[row as usize] += 1;
        }
        let mut total = 0;
        for o in &mut offsets {
            total += *o;
            *o = total;
        }
        let mut targets = vec![0u32; total as usize];
        for (row, target) in pairs {
            let at = &mut offsets[row as usize];
            *at -= 1;
            targets[*at as usize] = target;
        }
        Csr { offsets, targets }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Widens `iv` to cover `pos`.
fn extend(iv: &mut Option<Interval>, pos: u32) {
    match iv {
        None => {
            *iv = Some(Interval {
                start: pos,
                end: pos,
            })
        }
        Some(iv) => {
            iv.start = iv.start.min(pos);
            iv.end = iv.end.max(pos);
        }
    }
}

/// Computes the conservative live interval of every value; `None` for
/// values never referenced. References to ids at or above `num_values`
/// are client sentinels (e.g. an undefined value) and are ignored.
#[must_use]
pub fn live_intervals(input: &LivenessInput) -> Vec<Option<Interval>> {
    let nv = input.num_values as usize;
    let blocks = &input.blocks;
    let mut intervals: Vec<Option<Interval>> = vec![None; nv];

    // Per block, in one pass over its references: the hull of every
    // reference position, the values it defines (kill) and the values
    // it reads before its first definition (gen). `seen[v]` stamps the
    // block `v` was last seen defined/generated in.
    const NONE: u32 = u32::MAX;
    #[derive(Clone, Copy)]
    struct Seen {
        def_in: u32,
        first_def: u32,
        gen_in: u32,
    }
    let mut seen = vec![
        Seen {
            def_in: NONE,
            first_def: 0,
            gen_in: NONE,
        };
        nv
    ];
    let mut defs: Vec<(u32, u32)> = Vec::new(); // (value, block)
    let mut gens: Vec<(u32, u32)> = Vec::new(); // (value, block)
    let mut lo = 0;
    for (b, range) in blocks.iter().enumerate() {
        let last = b + 1 == blocks.len();
        let hi = lo
            + input.refs[lo..]
                .iter()
                .position(|r| !last && r.pos > range.end)
                .unwrap_or(input.refs.len() - lo);
        let refs = &input.refs[lo..hi];
        lo = hi;
        let b = b as u32;
        for r in refs.iter().filter(|r| r.is_def && (r.value as usize) < nv) {
            let s = &mut seen[r.value as usize];
            if s.def_in == b {
                s.first_def = s.first_def.min(r.pos);
            } else {
                s.def_in = b;
                s.first_def = r.pos;
                defs.push((r.value, b));
            }
        }
        for r in refs.iter().filter(|r| (r.value as usize) < nv) {
            let v = r.value as usize;
            extend(&mut intervals[v], r.pos);
            let s = &mut seen[v];
            let upward_exposed = s.def_in != b || r.pos <= s.first_def;
            if !r.is_def && upward_exposed && s.gen_in != b {
                s.gen_in = b;
                gens.push((r.value, b));
            }
        }
    }
    drop(seen);
    let defs = Csr::new(nv, defs.iter().copied());
    let gens = Csr::new(nv, gens.iter().copied());
    let preds = Csr::new(
        blocks.len(),
        input.edges.iter().map(|&(from, to)| (to, from)),
    );

    // Per value: walk backward from its upward-exposed uses. Each
    // block's `live_in`, `live_out` and `kill` marks hold the value last
    // stamped there, so one array serves every value unreset.
    struct Marks {
        start: u32,
        end: u32,
        live_in: u32,
        live_out: u32,
        kill: u32,
    }
    let mut marks: Vec<Marks> = blocks
        .iter()
        .map(|range| Marks {
            start: range.start,
            end: range.end,
            live_in: NONE,
            live_out: NONE,
            kill: NONE,
        })
        .collect();
    let mut work: Vec<u32> = Vec::new();
    for (v, iv) in intervals.iter_mut().enumerate() {
        let starts = gens.row(v);
        // A value with an upward-exposed use has a reference, so a hull.
        let Some(iv) = iv.as_mut().filter(|_| !starts.is_empty()) else {
            continue;
        };
        let stamp = v as u32;
        for &b in defs.row(v) {
            marks[b as usize].kill = stamp;
        }
        let (mut lo, mut hi) = (iv.start, iv.end);
        for &b in starts {
            let m = &mut marks[b as usize];
            m.live_in = stamp;
            lo = lo.min(m.start);
            work.push(b);
        }
        while let Some(b) = work.pop() {
            for &p in preds.row(b as usize) {
                let m = &mut marks[p as usize];
                if m.live_out == stamp {
                    continue;
                }
                m.live_out = stamp;
                hi = hi.max(m.end);
                if m.kill != stamp && m.live_in != stamp {
                    m.live_in = stamp;
                    lo = lo.min(m.start);
                    work.push(p);
                }
            }
        }
        *iv = Interval { start: lo, end: hi };
    }
    intervals
}

/// The result of [`linear_scan`].
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Frame slot per value (`u16::MAX` for values with no interval).
    pub slot: Vec<u16>,
    /// Total frame slots used (hot watermark + spill slots).
    pub frame_size: u16,
    /// Hot-region watermark: slots `0..hot_used` are "register" slots,
    /// `hot_used..frame_size` are spill slots.
    pub hot_used: u16,
    /// Number of intervals that overflowed into spill slots.
    pub spilled: u32,
}

/// Sentinel slot for values that were never referenced.
pub const NO_SLOT: u16 = u16::MAX;

/// Classic linear scan over the intervals: values whose intervals do not
/// overlap share slots; at most `hot` values occupy the hot region at
/// once, the rest overflow to spill slots (which are themselves reused).
///
/// # Panics
///
/// Panics if more than `u16::MAX - 1` simultaneous slots are required.
/// Untrusted callers should use [`try_linear_scan`].
#[must_use]
pub fn linear_scan(intervals: &[Option<Interval>], hot: u16) -> Allocation {
    match try_linear_scan(intervals, hot) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    }
}

/// The referenced intervals as `(start, value, end)`, ordered by start
/// and then value: a counting sort over start positions, which costs
/// O(intervals + last start) — linear in the size of the linearised
/// function the positions number.
fn by_start(intervals: &[Option<Interval>]) -> Vec<(u32, u32, u32)> {
    let span = intervals
        .iter()
        .flatten()
        .map(|iv| iv.start as usize + 1)
        .max()
        .unwrap_or(0);
    // Bucket ends first; filling each bucket from its end with values in
    // descending order leaves every bucket ascending by value.
    let mut at = vec![0u32; span];
    for iv in intervals.iter().flatten() {
        at[iv.start as usize] += 1;
    }
    let mut total = 0;
    for a in &mut at {
        total += *a;
        *a = total;
    }
    let mut order = vec![(0, 0, 0); total as usize];
    for (v, iv) in intervals.iter().enumerate().rev() {
        if let Some(iv) = iv {
            let a = &mut at[iv.start as usize];
            *a -= 1;
            order[*a as usize] = (iv.start, v as u32, iv.end);
        }
    }
    order
}

/// Like [`linear_scan`], but returns a [`LimitError`] instead of
/// panicking when a function needs more than `u16::MAX - 1` simultaneous
/// frame slots — reachable from hostile input (e.g. tens of thousands of
/// values all live at once), so the instantiation path must not abort.
///
/// # Errors
///
/// [`LimitError`] (`what: "frame slots"`) on slot overflow.
pub fn try_linear_scan(intervals: &[Option<Interval>], hot: u16) -> Result<Allocation, LimitError> {
    const SLOT_LIMIT: u64 = u16::MAX as u64 - 1;
    let overflow = || LimitError {
        what: "frame slots",
        limit: SLOT_LIMIT,
        actual: SLOT_LIMIT + 1,
    };
    let order = by_start(intervals);
    let mut slot = vec![NO_SLOT; intervals.len()];
    // `true` when `slot[v]` holds a spill *ordinal* (rebased above the
    // hot watermark at the end) rather than a hot slot index.
    let mut is_spill = vec![false; intervals.len()];
    // Free lists as min-heaps of released slots, so the lowest free
    // index is taken first — deterministic and dense. Slots never used
    // yet all lie above every released one, so they are handed out in
    // order by a counter instead of sitting in the heap.
    let mut free_hot: BinaryHeap<Reverse<u16>> = BinaryHeap::new();
    let mut hot_used: u16 = 0;
    let mut free_spill: BinaryHeap<Reverse<u16>> = BinaryHeap::new(); // spill ordinals
    let mut next_spill: u16 = 0;
    let mut spilled: u32 = 0;
    // Active intervals as a min-heap on end, packed as
    // `end << 32 | slot << 1 | is_spill`.
    let mut active: BinaryHeap<Reverse<u64>> = BinaryHeap::new();

    for (start, v, end) in order {
        // Expire intervals that ended strictly before this one starts.
        while let Some(&Reverse(key)) = active.peek() {
            if (key >> 32) as u32 >= start {
                break;
            }
            active.pop();
            let s = (key >> 1) as u16;
            if key & 1 == 1 {
                free_spill.push(Reverse(s));
            } else {
                free_hot.push(Reverse(s));
            }
        }
        let (s, sp) = if let Some(Reverse(s)) = free_hot.pop() {
            (s, false)
        } else if hot_used < hot {
            hot_used += 1;
            (hot_used - 1, false)
        } else {
            spilled += 1;
            let ordinal = match free_spill.pop() {
                Some(Reverse(o)) => o,
                None => {
                    let o = next_spill;
                    next_spill = next_spill.checked_add(1).ok_or_else(overflow)?;
                    o
                }
            };
            (ordinal, true)
        };
        slot[v as usize] = s;
        is_spill[v as usize] = sp;
        active.push(Reverse(
            u64::from(end) << 32 | u64::from(s) << 1 | u64::from(sp),
        ));
    }

    // Spill ordinals were provisional (the hot watermark was still
    // moving); rebase them to sit directly above the hot region.
    let frame_size = u16::try_from(u32::from(hot_used) + u32::from(next_spill))
        .ok()
        .filter(|&f| f != NO_SLOT)
        .ok_or_else(overflow)?;
    for (v, s) in slot.iter_mut().enumerate() {
        if *s != NO_SLOT && is_spill[v] {
            *s += hot_used;
        }
    }
    Ok(Allocation {
        slot,
        frame_size,
        hot_used,
        spilled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-width bitset over value ids.
    #[derive(Clone, PartialEq, Default)]
    struct BitSet {
        words: Vec<u64>,
    }

    impl BitSet {
        fn new(bits: usize) -> Self {
            Self {
                words: vec![0; bits.div_ceil(64)],
            }
        }

        fn insert(&mut self, i: u32) {
            self.words[i as usize / 64] |= 1 << (i % 64);
        }

        fn contains(&self, i: u32) -> bool {
            self.words[i as usize / 64] & (1 << (i % 64)) != 0
        }

        /// `self |= other`; returns whether `self` changed.
        fn union_with(&mut self, other: &BitSet) -> bool {
            let mut changed = false;
            for (w, &o) in self.words.iter_mut().zip(&other.words) {
                let next = *w | o;
                changed |= next != *w;
                *w = next;
            }
            changed
        }

        /// `self |= a & !b`; returns whether `self` changed.
        fn union_with_minus(&mut self, a: &BitSet, b: &BitSet) -> bool {
            let mut changed = false;
            for i in 0..self.words.len() {
                let next = self.words[i] | (a.words[i] & !b.words[i]);
                changed |= next != self.words[i];
                self.words[i] = next;
            }
            changed
        }

        fn iter(&self) -> impl Iterator<Item = u32> + '_ {
            self.words.iter().enumerate().flat_map(|(wi, &w)| {
                (0..64)
                    .filter(move |b| w & (1 << b) != 0)
                    .map(move |b| (wi * 64 + b) as u32)
            })
        }
    }

    /// The bit-vector fixpoint [`live_intervals`] replaced, kept as its
    /// reference: sorts the references, solves gen/kill over per-block
    /// bitsets (cloning them every iteration) and takes the hull.
    fn reference_live_intervals(input: &LivenessInput) -> Vec<Option<Interval>> {
        let nv = input.num_values as usize;
        let nb = input.blocks.len();

        // Per-block gen (used before any in-block def) and kill (defined).
        let mut gen_b = vec![BitSet::new(nv); nb];
        let mut kill_b = vec![BitSet::new(nv); nb];
        let block_of = |pos: u32| -> usize {
            // Blocks are laid out in increasing position order.
            input
                .blocks
                .partition_point(|b| b.end < pos)
                .min(nb.saturating_sub(1))
        };
        let mut sorted_refs: Vec<ValueRef> = input.refs.clone();
        sorted_refs.sort_by_key(|r| (r.pos, r.is_def));
        for r in &sorted_refs {
            if r.value as usize >= nv {
                continue; // client sentinel (e.g. UNDEF): not allocated
            }
            let b = block_of(r.pos);
            if r.is_def {
                kill_b[b].insert(r.value);
            } else if !kill_b[b].contains(r.value) {
                gen_b[b].insert(r.value);
            }
        }

        let mut succs = vec![Vec::new(); nb];
        for &(from, to) in &input.edges {
            succs[from as usize].push(to);
        }
        // Backward fixpoint: live_out[b] = ∪ live_in[s]; live_in[b] = gen[b]
        // ∪ (live_out[b] − kill[b]).
        let mut live_in = vec![BitSet::new(nv); nb];
        let mut live_out = vec![BitSet::new(nv); nb];
        loop {
            let mut changed = false;
            for b in (0..nb).rev() {
                for &s in &succs[b] {
                    let succ_in = live_in[s as usize].clone();
                    changed |= live_out[b].union_with(&succ_in);
                }
                changed |= {
                    let g = gen_b[b].clone();
                    live_in[b].union_with(&g)
                };
                let (lo, k) = (live_out[b].clone(), kill_b[b].clone());
                changed |= live_in[b].union_with_minus(&lo, &k);
            }
            if !changed {
                break;
            }
        }

        // Convex hull per value: every reference position, plus the block
        // start for live-in values and the block end for live-out values.
        let mut intervals: Vec<Option<Interval>> = vec![None; nv];
        let mut extend = |v: u32, pos: u32| {
            let e = &mut intervals[v as usize];
            match e {
                None => {
                    *e = Some(Interval {
                        start: pos,
                        end: pos,
                    });
                }
                Some(iv) => {
                    iv.start = iv.start.min(pos);
                    iv.end = iv.end.max(pos);
                }
            }
        };
        for r in &sorted_refs {
            if (r.value as usize) < nv {
                extend(r.value, r.pos);
            }
        }
        for b in 0..nb {
            for v in live_in[b].iter() {
                extend(v, input.blocks[b].start);
            }
            for v in live_out[b].iter() {
                extend(v, input.blocks[b].end);
            }
        }
        intervals
    }

    /// The sorted-`Vec` linear scan [`try_linear_scan`] replaced, kept as
    /// its reference.
    fn reference_linear_scan(
        intervals: &[Option<Interval>],
        hot: u16,
    ) -> Result<Allocation, LimitError> {
        const SLOT_LIMIT: u64 = u16::MAX as u64 - 1;
        let overflow = || LimitError {
            what: "frame slots",
            limit: SLOT_LIMIT,
            actual: SLOT_LIMIT + 1,
        };
        let mut order: Vec<(u32, Interval)> = intervals
            .iter()
            .enumerate()
            .filter_map(|(v, iv)| iv.map(|iv| (v as u32, iv)))
            .collect();
        order.sort_by_key(|&(v, iv)| (iv.start, v));

        let mut slot = vec![NO_SLOT; intervals.len()];
        // `true` when `slot[v]` holds a spill *ordinal* (rebased above the
        // hot watermark at the end) rather than a hot slot index.
        let mut is_spill = vec![false; intervals.len()];
        // Free lists, kept sorted descending so `pop` yields the lowest
        // index — deterministic and dense.
        let mut free_hot: Vec<u16> = (0..hot).rev().collect();
        let mut free_spill: Vec<u16> = Vec::new(); // spill ordinals
        let mut next_spill: u16 = 0;
        let mut hot_used: u16 = 0;
        let mut spilled: u32 = 0;
        // Active: (end, slot_or_spill_ordinal, is_spill), sorted by end asc.
        let mut active: Vec<(u32, u16, bool)> = Vec::new();

        for &(v, iv) in &order {
            // Expire intervals that ended strictly before this one starts.
            let mut i = 0;
            while i < active.len() {
                if active[i].0 < iv.start {
                    let (_, s, sp) = active.remove(i);
                    if sp {
                        free_spill.push(s);
                        free_spill.sort_unstable_by(|a, b| b.cmp(a));
                    } else {
                        free_hot.push(s);
                        free_hot.sort_unstable_by(|a, b| b.cmp(a));
                    }
                } else {
                    i += 1;
                }
            }
            let (s, sp) = if let Some(s) = free_hot.pop() {
                hot_used = hot_used.max(s + 1);
                (s, false)
            } else {
                spilled += 1;
                let ordinal = match free_spill.pop() {
                    Some(o) => o,
                    None => {
                        let o = next_spill;
                        next_spill = next_spill.checked_add(1).ok_or_else(overflow)?;
                        o
                    }
                };
                (ordinal, true)
            };
            slot[v as usize] = s;
            is_spill[v as usize] = sp;
            let ins = active.partition_point(|&(e, _, _)| e <= iv.end);
            active.insert(ins, (iv.end, s, sp));
        }

        // Spill ordinals were provisional (the hot watermark was still
        // moving); rebase them to sit directly above the hot region.
        let frame_size = u16::try_from(u32::from(hot_used) + u32::from(next_spill))
            .ok()
            .filter(|&f| f != NO_SLOT)
            .ok_or_else(overflow)?;
        for (v, s) in slot.iter_mut().enumerate() {
            if *s != NO_SLOT && is_spill[v] {
                *s += hot_used;
            }
        }
        Ok(Allocation {
            slot,
            frame_size,
            hot_used,
            spilled,
        })
    }

    /// SplitMix64: a seeded, dependency-free generator for the property
    /// tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }
    }

    /// A random liveness problem: contiguous blocks of 1–6 positions
    /// with 0–3 successors each (back edges, self loops and blocks no
    /// edge reaches arise freely), values defined in several blocks (as
    /// phi-copy destinations are), uses and defs of one value at one
    /// position, out-of-range sentinel refs, refs past the last block,
    /// and each block's refs shuffled.
    fn random_input(rng: &mut Rng) -> LivenessInput {
        let nb = 1 + rng.below(12);
        let num_values = 1 + rng.below(24);
        let mut blocks = Vec::new();
        let mut edges = Vec::new();
        let mut pos = 0;
        for b in 0..nb {
            let len = 1 + rng.below(6);
            for _ in 0..rng.below(4) {
                edges.push((b, rng.below(nb)));
            }
            blocks.push(BlockRange {
                start: pos,
                end: pos + len - 1,
            });
            pos += len;
        }
        let mut refs = Vec::new();
        for (i, blk) in blocks.iter().enumerate() {
            let mut group: Vec<ValueRef> = Vec::new();
            for _ in 0..rng.below(10) {
                let value = match rng.below(16) {
                    0 => u32::MAX,
                    1 => num_values + rng.below(3),
                    _ => rng.below(num_values),
                };
                let at = blk.start + rng.below(blk.end - blk.start + 1);
                let is_def = rng.below(2) == 0;
                group.push(ValueRef {
                    pos: at,
                    value,
                    is_def,
                });
                if rng.below(8) == 0 {
                    // The same value read and written at one position.
                    group.push(ValueRef {
                        pos: at,
                        value,
                        is_def: !is_def,
                    });
                }
            }
            if i + 1 == blocks.len() && rng.below(4) == 0 {
                group.push(ValueRef {
                    pos: blk.end + 1 + rng.below(3),
                    value: rng.below(num_values),
                    is_def: rng.below(2) == 0,
                });
            }
            for j in (1..group.len()).rev() {
                group.swap(j, rng.below(j as u32 + 1) as usize);
            }
            refs.extend(group);
        }
        LivenessInput {
            num_values,
            blocks,
            edges,
            refs,
        }
    }

    /// Asserts that `got` equals the reference allocation slot for slot
    /// and that no two overlapping intervals share a slot.
    fn check_scan(intervals: &[Option<Interval>], hot: u16, case: usize) {
        let got = try_linear_scan(intervals, hot).expect("fits");
        let want = reference_linear_scan(intervals, hot).expect("fits");
        assert_eq!(got.slot, want.slot, "case {case}, hot {hot}: slots");
        assert_eq!(
            (got.frame_size, got.hot_used, got.spilled),
            (want.frame_size, want.hot_used, want.spilled),
            "case {case}, hot {hot}: frame"
        );
        for (a, ia) in intervals.iter().enumerate() {
            for (b, ib) in intervals.iter().enumerate().skip(a + 1) {
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    let overlap = ia.start <= ib.end && ib.start <= ia.end;
                    assert!(
                        !overlap || got.slot[a] != got.slot[b],
                        "case {case}, hot {hot}: v{a} {ia:?} and v{b} {ib:?} share a slot"
                    );
                }
            }
        }
    }

    #[test]
    fn live_intervals_match_the_bitset_fixpoint_on_random_cfgs() {
        let mut rng = Rng(0x1f_2e3d);
        for case in 0..3000 {
            let input = random_input(&mut rng);
            let got = live_intervals(&input);
            assert_eq!(
                got,
                reference_live_intervals(&input),
                "case {case}: {input:?}"
            );
            for hot in [0, 1, 3, 32] {
                check_scan(&got, hot, case);
            }
        }
    }

    #[test]
    fn linear_scan_matches_the_sorted_list_scan_on_random_intervals() {
        let mut rng = Rng(0x5ca1_ab1e);
        for case in 0..2000 {
            let n = 1 + rng.below(40);
            // Odd cases spread the starts out: sparse buckets.
            let scale = if case % 2 == 0 { 1 } else { 1000 };
            let intervals: Vec<Option<Interval>> = (0..n)
                .map(|_| {
                    (rng.below(5) != 0).then(|| {
                        let start = rng.below(30) * scale;
                        Interval {
                            start,
                            end: start + rng.below(12) * scale,
                        }
                    })
                })
                .collect();
            for hot in [0, 1, 2, 5, 32] {
                check_scan(&intervals, hot, case);
            }
        }
    }

    fn one_block(end: u32) -> Vec<BlockRange> {
        vec![BlockRange { start: 0, end }]
    }

    fn refs(list: &[(u32, u32, bool)]) -> Vec<ValueRef> {
        list.iter()
            .map(|&(pos, value, is_def)| ValueRef { pos, value, is_def })
            .collect()
    }

    #[test]
    fn disjoint_intervals_share_a_slot() {
        // v0 live [0,1], v1 live [2,3].
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(3),
            edges: Vec::new(),
            refs: refs(&[(0, 0, true), (1, 0, false), (2, 1, true), (3, 1, false)]),
        };
        let iv = live_intervals(&input);
        assert_eq!(iv[0], Some(Interval { start: 0, end: 1 }));
        assert_eq!(iv[1], Some(Interval { start: 2, end: 3 }));
        let a = linear_scan(&iv, 4);
        assert_eq!(a.slot[0], a.slot[1]);
        assert_eq!(a.frame_size, 1);
        assert_eq!(a.spilled, 0);
    }

    #[test]
    fn overlapping_intervals_get_distinct_slots() {
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(3),
            edges: Vec::new(),
            refs: refs(&[(0, 0, true), (1, 1, true), (2, 0, false), (3, 1, false)]),
        };
        let a = linear_scan(&live_intervals(&input), 4);
        assert_ne!(a.slot[0], a.slot[1]);
    }

    #[test]
    fn pressure_beyond_hot_budget_spills() {
        // 5 values all live at once, hot budget 2: 3 spill slots.
        let mut r = Vec::new();
        for v in 0..5u32 {
            r.push((v, v, true));
            r.push((10 + v, v, false));
        }
        let input = LivenessInput {
            num_values: 5,
            blocks: one_block(14),
            edges: Vec::new(),
            refs: refs(&r),
        };
        let a = linear_scan(&live_intervals(&input), 2);
        assert_eq!(a.hot_used, 2);
        assert_eq!(a.spilled, 3);
        assert_eq!(a.frame_size, 5);
        // All five slots distinct.
        let mut slots: Vec<u16> = a.slot.clone();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 5);
        // Spill slots sit directly above the hot watermark.
        assert!(a.slot.iter().all(|&s| s < a.frame_size));
    }

    #[test]
    fn value_live_into_loop_header_spans_the_whole_loop() {
        // Block 0 (entry, pos 0..1) defines v0 and v1; block 1 (loop
        // body, pos 2..4) uses v0 at its top and loops to itself; block
        // 2 (exit, pos 5..6) uses v1. v0's hull must cover the whole
        // loop body — including pos 4 — because it is live around the
        // back edge; a def at pos 3 must therefore not share its slot.
        let input = LivenessInput {
            num_values: 3,
            blocks: vec![
                BlockRange { start: 0, end: 1 },
                BlockRange { start: 2, end: 4 },
                BlockRange { start: 5, end: 6 },
            ],
            edges: vec![(0, 1), (1, 1), (1, 2)],
            refs: refs(&[
                (0, 0, true),
                (1, 1, true),
                (2, 0, false),
                (3, 2, true), // temp defined mid-loop
                (4, 2, false),
                (5, 1, false),
            ]),
        };
        let iv = live_intervals(&input);
        // v0 live-in at the loop header on every iteration -> live out
        // of the body (the back-edge block), so its hull reaches pos 4.
        assert_eq!(iv[0], Some(Interval { start: 0, end: 4 }));
        // v1 is live across the loop entirely.
        assert_eq!(iv[1], Some(Interval { start: 1, end: 5 }));
        let a = linear_scan(&iv, 8);
        assert_ne!(a.slot[0], a.slot[2]);
        assert_ne!(a.slot[1], a.slot[2]);
    }

    #[test]
    fn slot_overflow_is_an_error_not_a_panic() {
        // 70k values all live simultaneously: more simultaneous slots
        // than u16 can index. try_linear_scan must report it.
        let n = 70_000u32;
        let intervals: Vec<Option<Interval>> = (0..n)
            .map(|_| Some(Interval { start: 0, end: 1 }))
            .collect();
        let err = try_linear_scan(&intervals, 16).unwrap_err();
        assert_eq!(err.what, "frame slots");
    }

    #[test]
    fn unreferenced_values_get_no_slot() {
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(1),
            edges: Vec::new(),
            refs: refs(&[(0, 0, true), (1, 0, false)]),
        };
        let a = linear_scan(&live_intervals(&input), 4);
        assert_eq!(a.slot[1], NO_SLOT);
    }
}
