//! Braun-style SSA construction over an abstract CFG.
//!
//! Implements the on-the-fly algorithm of Braun et al. ("Simple and
//! Efficient Construction of Static Single Assignment Form", CC 2013):
//! the client walks its input in any order, registering blocks, edges and
//! variable reads/writes; phi functions materialise on demand at join
//! points, and blocks whose predecessor sets are not yet complete (loop
//! headers during body construction) hold *incomplete* phis that are
//! resolved when the block is sealed. Trivial phis (all operands equal)
//! are replaced by their unique operand through a redirection table —
//! [`SsaBuilder::resolve`] follows it — rather than by rewriting uses in
//! place, so the client can resolve its own instruction operands once,
//! after [`SsaBuilder::finish`].
//!
//! Everything is `u32` identifiers: the client owns the meaning of
//! variables and values. The state is dense and `Vec`-indexed, sized by
//! what the input defines rather than by blocks × variables:
//!
//! - per block (indexed by block id): its predecessors, its phis, and
//!   the variable definitions reaching its end, as a list sorted by
//!   variable (binary-searched), so a block holds only the variables
//!   written or looked up through it. These lists live in shared
//!   arenas, so a block costs no allocation of its own;
//! - per value (indexed by value id): its phi, if it is one, and its
//!   trivial-phi redirection, path-compressed as it is followed.
//!
//! Memory is O(definitions + values + blocks). Every container iterates
//! in insertion or id order, never in hash order, so the output is
//! deterministic, which matters because the engine derives bytecode —
//! and ultimately the cycle-golden file — from it.

/// A client-defined variable (e.g. a wasm local index).
pub type Var = u32;
/// A basic-block identifier handed out by [`SsaBuilder::new_block`].
pub type Block = u32;
/// An SSA value identifier handed out by [`SsaBuilder::new_value`] (or
/// internally for phis).
pub type Value = u32;

/// The value of a read with no reaching definition (only possible in
/// statically unreachable code): a phi over zero predecessors resolves
/// to this.
pub const UNDEF: Value = u32::MAX;

/// The end of a [`List`], and the `phi_of` entry of a value that was
/// never a phi.
const NONE: u32 = u32::MAX;

/// An append-only list threaded through a [`Lists`] arena: its first
/// and last node, [`NONE`] when empty.
#[derive(Debug, Clone, Copy)]
struct List {
    first: u32,
    last: u32,
}

impl List {
    const EMPTY: List = List {
        first: NONE,
        last: NONE,
    };
}

/// Many append-only lists sharing one `Vec`: a node is an item plus the
/// index of the next node of its list. Lists keep insertion order and
/// cost no allocation of their own.
#[derive(Debug)]
struct Lists<T> {
    nodes: Vec<(T, u32)>,
}

impl<T: Copy> Lists<T> {
    fn with_capacity(n: usize) -> Self {
        Lists {
            nodes: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, list: &mut List, item: T) {
        let node = self.nodes.len() as u32;
        match list.last {
            NONE => list.first = node,
            last => self.nodes[last as usize].1 = node,
        }
        list.last = node;
        self.nodes.push((item, NONE));
    }

    /// The item at `node` and the node after it; `None` past the end.
    fn at(&self, node: u32) -> Option<(T, u32)> {
        self.nodes.get(node as usize).copied()
    }

    fn iter(&self, list: List) -> impl Iterator<Item = T> + '_ {
        let mut node = list.first;
        std::iter::from_fn(move || {
            let (item, next) = self.at(node)?;
            node = next;
            Some(item)
        })
    }
}

/// A block's `(variable, value)` list inside a [`DefTable`]: `len`
/// entries sorted by variable from `start`, with room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every block's definitions in one buffer. A full list that is not the
/// last one moves to the end with twice the room, so the buffer stays
/// within a small factor of the entries it holds.
#[derive(Debug, Default)]
struct DefTable {
    data: Vec<(Var, Value)>,
}

impl DefTable {
    fn entries(&self, span: Span) -> &[(Var, Value)] {
        &self.data[span.start as usize..(span.start + span.len) as usize]
    }

    fn get(&self, span: Span, var: Var) -> Option<Value> {
        let entries = self.entries(span);
        let i = entries.binary_search_by_key(&var, |&(v, _)| v).ok()?;
        Some(entries[i].1)
    }

    fn set(&mut self, span: &mut Span, var: Var, value: Value) {
        let at = match self.entries(*span).binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => {
                self.data[(span.start + i as u32) as usize].1 = value;
                return;
            }
            Err(i) => i,
        };
        if span.len == span.cap {
            let cap = (span.cap * 2).max(4);
            if (span.start + span.cap) as usize != self.data.len() {
                let start = self.data.len();
                self.data
                    .extend_from_within(span.start as usize..(span.start + span.len) as usize);
                span.start = start as u32;
            }
            self.data.resize((span.start + cap) as usize, (0, 0));
            span.cap = cap;
        }
        let base = span.start as usize;
        self.data
            .copy_within(base + at..base + span.len as usize, base + at + 1);
        self.data[base + at] = (var, value);
        span.len += 1;
    }
}

#[derive(Debug)]
struct BlockData {
    /// Predecessor edges in registration order (`SsaBuilder::preds`).
    preds: List,
    pred_count: u32,
    sealed: bool,
    /// `(variable, value)` at the block's current end
    /// (`SsaBuilder::defs`).
    defs: Span,
    /// Phis created before the predecessor set was complete, awaiting
    /// [`SsaBuilder::seal_block`].
    incomplete: Vec<(Var, Value)>,
    /// Every phi created in the block, as indices into
    /// `SsaBuilder::phis` in ascending value order
    /// (`SsaBuilder::block_phis`); removed ones are skipped on reads.
    phis: List,
}

impl Default for BlockData {
    fn default() -> Self {
        BlockData {
            preds: List::EMPTY,
            pred_count: 0,
            sealed: false,
            defs: Span::default(),
            incomplete: Vec::new(),
            phis: List::EMPTY,
        }
    }
}

#[derive(Debug)]
struct Phi {
    value: Value,
    /// `(predecessor, value)` — one entry per predecessor edge
    /// (`SsaBuilder::operands`).
    operands: List,
    /// Cleared when the phi is found trivial and redirected.
    live: bool,
}

/// One frame of the explicit reaching-definition walk
/// ([`SsaBuilder::run_read`]); replaces the recursion of Braun et al.'s
/// `readVariableRecursive`/`addPhiOperands` pair.
#[derive(Debug)]
enum Walk {
    /// Resolve the variable's value at the end of `block`.
    Read { block: Block },
    /// A single-predecessor chain hop: once the predecessor's value is
    /// known, memoize it in `block` too.
    Store { block: Block },
    /// Fill `phi`'s operands from the predecessors of `block` (final by
    /// now: the block is sealed): `sent` is the predecessor whose read
    /// was dispatched last ([`NONE`] before the first), `next` the edge
    /// to dispatch next ([`NONE`] after the last). `write_back`
    /// distinguishes a read-triggered phi (memoize the resolved value in
    /// the block's def map) from a seal-triggered completion (leave the
    /// def map alone).
    Fill {
        phi: Value,
        block: Block,
        sent: Block,
        next: u32,
        write_back: bool,
    },
}

/// Incremental SSA builder. See the module docs for the protocol:
/// create blocks, add predecessor edges, read/write variables, seal each
/// block once its predecessors are final, then call
/// [`SsaBuilder::finish`] and resolve operands.
#[derive(Debug)]
pub struct SsaBuilder {
    blocks: Vec<BlockData>,
    /// The arenas behind each block's `preds`, `defs` and `phis` and
    /// each phi's `operands`.
    preds: Lists<Block>,
    defs: DefTable,
    block_phis: Lists<u32>,
    operands: Lists<(Block, Value)>,
    /// Every phi ever created, in ascending value order.
    phis: Vec<Phi>,
    /// Per value id: its index in `phis`, or [`NONE`].
    phi_of: Vec<u32>,
    /// Per value id: the value it was redirected to (itself if none).
    replaced: Vec<Value>,
    /// The walk stack of [`SsaBuilder::run_read`], kept for reuse.
    walk: Vec<Walk>,
}

impl Default for SsaBuilder {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl SsaBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `blocks` blocks and
    /// `values` values before any table grows.
    #[must_use]
    pub fn with_capacity(blocks: usize, values: usize) -> Self {
        SsaBuilder {
            blocks: Vec::with_capacity(blocks),
            preds: Lists::with_capacity(2 * blocks),
            defs: DefTable {
                data: Vec::with_capacity(4 * blocks),
            },
            block_phis: Lists::with_capacity(blocks),
            operands: Lists::with_capacity(2 * blocks),
            phis: Vec::with_capacity(blocks),
            phi_of: Vec::with_capacity(values),
            replaced: Vec::with_capacity(values),
            walk: Vec::new(),
        }
    }

    /// Allocates a fresh value id for a client-side definition.
    pub fn new_value(&mut self) -> Value {
        let v = self.replaced.len() as Value;
        self.replaced.push(v);
        self.phi_of.push(NONE);
        v
    }

    /// Creates a new, unsealed block with no predecessors.
    pub fn new_block(&mut self) -> Block {
        let b = self.blocks.len() as Block;
        self.blocks.push(BlockData::default());
        b
    }

    /// Registers a control-flow edge `pred -> block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    pub fn add_pred(&mut self, block: Block, pred: Block) {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "edge added to sealed block {block}");
        data.pred_count += 1;
        self.preds.push(&mut data.preds, pred);
    }

    /// Number of predecessor edges registered for `block`.
    #[must_use]
    pub fn pred_count(&self, block: Block) -> usize {
        self.blocks[block as usize].pred_count as usize
    }

    /// Records that `var` holds `value` at the end of `block`.
    pub fn write_var(&mut self, var: Var, block: Block, value: Value) {
        self.defs
            .set(&mut self.blocks[block as usize].defs, var, value);
    }

    /// The value of `var` at the current end of `block`, creating phis
    /// as needed. Returns [`UNDEF`] only for reads in unreachable code.
    ///
    /// The reaching-definition walk over predecessor chains runs on an
    /// explicit work stack: its depth scales with the longest acyclic
    /// CFG path (one hop per block for straight-line chains, one per
    /// join for branchy code), so a recursive walk would overflow the
    /// host stack on pathological but valid inputs — e.g. a variable
    /// defined once and read after a hundred thousand sequential `if`s.
    pub fn read_var(&mut self, var: Var, block: Block) -> Value {
        self.run_read(var, Walk::Read { block })
    }

    /// Marks the predecessor set of `block` as final, completing any
    /// phis created while it was open (loop headers).
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    pub fn seal_block(&mut self, block: Block) {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "block {block} sealed twice");
        data.sealed = true;
        let first = data.preds.first;
        let incomplete = std::mem::take(&mut data.incomplete);
        for (var, phi) in incomplete {
            // Seal-time completion leaves the block's def map alone: the
            // phi stays recorded and redirects through `replaced` if it
            // turns out trivial.
            self.run_read(
                var,
                Walk::Fill {
                    phi,
                    block,
                    sent: NONE,
                    next: first,
                    write_back: false,
                },
            );
        }
    }

    /// The iterative engine behind [`SsaBuilder::read_var`] and
    /// [`SsaBuilder::seal_block`]: a faithful explicit-stack rendering
    /// of Braun et al.'s mutually recursive `readVariable` /
    /// `addPhiOperands`, preserving the exact order of value allocation
    /// and operand insertion (the bytecode derived from this feeds the
    /// cycle golden file).
    fn run_read(&mut self, var: Var, start: Walk) -> Value {
        let mut stack = std::mem::take(&mut self.walk);
        stack.push(start);
        // The value produced by the most recently completed frame.
        let mut ret = UNDEF;
        while let Some(top) = stack.last_mut() {
            match top {
                Walk::Read { block } => {
                    let block = *block;
                    stack.pop();
                    let data = &self.blocks[block as usize];
                    if let Some(v) = self.defs.get(data.defs, var) {
                        ret = self.find(v);
                    } else if !data.sealed {
                        let phi = self.new_phi(block);
                        self.blocks[block as usize].incomplete.push((var, phi));
                        self.write_var(var, block, phi);
                        ret = phi;
                    } else if data.pred_count == 0 {
                        self.write_var(var, block, UNDEF);
                        ret = UNDEF;
                    } else if data.pred_count == 1 {
                        let p = self.preds.nodes[data.preds.first as usize].0;
                        stack.push(Walk::Store { block });
                        stack.push(Walk::Read { block: p });
                    } else {
                        // Break potential cycles (loops) by writing the
                        // phi before collecting its operands.
                        let next = data.preds.first;
                        let phi = self.new_phi(block);
                        self.write_var(var, block, phi);
                        stack.push(Walk::Fill {
                            phi,
                            block,
                            sent: NONE,
                            next,
                            write_back: true,
                        });
                    }
                }
                Walk::Store { block } => {
                    let block = *block;
                    stack.pop();
                    self.write_var(var, block, ret);
                }
                Walk::Fill {
                    phi,
                    block,
                    sent,
                    next,
                    write_back,
                } => {
                    if *sent != NONE {
                        // A predecessor read just completed: record it.
                        let idx = self.phi_of[*phi as usize] as usize;
                        self.operands
                            .push(&mut self.phis[idx].operands, (*sent, ret));
                    }
                    if let Some((p, after)) = self.preds.at(*next) {
                        *sent = p;
                        *next = after;
                        stack.push(Walk::Read { block: p });
                    } else {
                        let (phi, block, write_back) = (*phi, *block, *write_back);
                        stack.pop();
                        let resolved = self.try_remove_trivial(phi);
                        if write_back {
                            self.write_var(var, block, resolved);
                        }
                        ret = resolved;
                    }
                }
            }
        }
        self.walk = stack;
        ret
    }

    /// Creates an operand-less phi in `block` for the client to fill via
    /// [`SsaBuilder::add_phi_operand`] (used for block-result values,
    /// where the merged value lives on the operand stack rather than in
    /// a variable).
    pub fn new_phi(&mut self, block: Block) -> Value {
        let v = self.new_value();
        let idx = self.phis.len() as u32;
        self.phi_of[v as usize] = idx;
        self.phis.push(Phi {
            value: v,
            operands: List::EMPTY,
            live: true,
        });
        self.block_phis
            .push(&mut self.blocks[block as usize].phis, idx);
        v
    }

    /// The index in `phis` of `v`, if it is a surviving phi.
    fn phi_index(&self, v: Value) -> Option<usize> {
        let idx = *self.phi_of.get(v as usize)? as usize;
        self.phis.get(idx)?.live.then_some(idx)
    }

    /// The surviving phi `v`, if it is one.
    fn phi(&self, v: Value) -> Option<&Phi> {
        self.phi_index(v).map(|idx| &self.phis[idx])
    }

    /// Appends the operand `value` flowing into phi `phi` along the edge
    /// from `pred`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a live phi.
    pub fn add_phi_operand(&mut self, phi: Value, pred: Block, value: Value) {
        let idx = self.phi_index(phi).expect("operand added to non-phi value");
        self.operands
            .push(&mut self.phis[idx].operands, (pred, value));
    }

    /// Replaces `phi` by its unique operand when all operands agree
    /// (ignoring self-references); returns the surviving value.
    fn try_remove_trivial(&mut self, phi: Value) -> Value {
        let idx = self.phi_of[phi as usize] as usize;
        let mut same: Option<Value> = None;
        let mut node = self.phis[idx].operands.first;
        while let Some(((_, raw), next)) = self.operands.at(node) {
            node = next;
            let v = self.find(raw);
            if v == phi || Some(v) == same || v == UNDEF {
                continue;
            }
            if same.is_some() {
                return phi; // two distinct operands: not trivial
            }
            same = Some(v);
        }
        let same = same.unwrap_or(UNDEF);
        self.phis[idx].live = false;
        self.replaced[phi as usize] = same;
        same
    }

    /// Follows the trivial-phi redirection chain from `v` to the value
    /// that actually carries it. After [`SsaBuilder::finish`] every
    /// chain is one hop long.
    #[must_use]
    pub fn resolve(&self, mut v: Value) -> Value {
        while let Some(&r) = self.replaced.get(v as usize) {
            if r == v {
                break;
            }
            v = r;
        }
        v
    }

    /// [`SsaBuilder::resolve`] with path compression: every value on the
    /// chain is redirected straight to the result.
    fn find(&mut self, v: Value) -> Value {
        let root = self.resolve(v);
        let mut x = v;
        while let Some(r) = self.replaced.get_mut(x as usize) {
            if *r == x || *r == root {
                break;
            }
            x = std::mem::replace(r, root);
        }
        root
    }

    /// Runs trivial-phi elimination to a fixpoint. The on-the-fly
    /// algorithm can leave a phi that only *became* trivial when one of
    /// its operand phis was removed (no use lists are maintained); such
    /// leftovers are correct but redundant, and this pass removes them.
    /// Call once after construction, before reading phis back.
    pub fn finish(&mut self) {
        loop {
            let mut changed = false;
            for idx in 0..self.phis.len() {
                let Phi { value, live, .. } = self.phis[idx];
                if live && self.try_remove_trivial(value) != value {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..self.replaced.len() as Value {
            self.find(v);
        }
    }

    /// Whether `v` is a (surviving) phi.
    #[must_use]
    pub fn is_phi(&self, v: Value) -> bool {
        self.phi(v).is_some()
    }

    /// The surviving phis of `block`, in ascending value order.
    pub fn phis_in(&self, block: Block) -> impl Iterator<Item = Value> + '_ {
        self.block_phis
            .iter(self.blocks[block as usize].phis)
            .map(|idx| &self.phis[idx as usize])
            .filter(|p| p.live)
            .map(|p| p.value)
    }

    /// The resolved value flowing into phi `v` along its first edge from
    /// `pred`; `None` if `v` is not a surviving phi or has no such edge.
    #[must_use]
    pub fn phi_operand(&self, v: Value, pred: Block) -> Option<Value> {
        self.operands
            .iter(self.phi(v)?.operands)
            .find(|&(p, _)| p == pred)
            .map(|(_, val)| self.resolve(val))
    }

    /// The resolved `(predecessor, value)` operands of phi `v`; empty if
    /// `v` is not a surviving phi.
    #[must_use]
    pub fn phi_operands(&self, v: Value) -> Vec<(Block, Value)> {
        self.phi(v).map_or_else(Vec::new, |phi| {
            self.operands
                .iter(phi.operands)
                .map(|(p, val)| (p, self.resolve(val)))
                .collect()
        })
    }

    /// Total number of value ids allocated.
    #[must_use]
    pub fn num_values(&self) -> u32 {
        self.replaced.len() as u32
    }
}

/// Orders a parallel copy set (semantics: all sources are read before
/// any destination is written) into a sequential move list, breaking
/// swap cycles through the reserved `scratch` location.
///
/// Destinations must be distinct; `dst == src` self-copies are dropped.
/// This is the phi-elimination step: each predecessor of a join runs one
/// parallel copy writing every phi of the join, and the sequentialised
/// form is what the register bytecode actually executes.
#[must_use]
pub fn sequence_parallel_copies(copies: &[(u16, u16)], scratch: u16) -> Vec<(u16, u16)> {
    let mut pending: Vec<(u16, u16)> = copies.iter().copied().filter(|(d, s)| d != s).collect();
    let mut out = Vec::with_capacity(pending.len() + 1);
    while !pending.is_empty() {
        // Emit any copy whose destination no other pending copy still
        // reads; if none exists every destination is also a source — a
        // cycle — so park one value in scratch to open it.
        if let Some(i) = (0..pending.len()).find(|&i| {
            let d = pending[i].0;
            pending.iter().all(|&(_, s)| s != d)
        }) {
            out.push(pending.remove(i));
        } else {
            let d = pending[0].0;
            out.push((scratch, d));
            for c in &mut pending {
                if c.1 == d {
                    c.1 = scratch;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_reads_see_writes() {
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        assert_eq!(b.read_var(0, entry), v0);
    }

    #[test]
    fn diamond_join_creates_phi() {
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let (then_b, else_b, join) = (b.new_block(), b.new_block(), b.new_block());
        b.add_pred(then_b, entry);
        b.add_pred(else_b, entry);
        b.seal_block(then_b);
        b.seal_block(else_b);
        let (t, e) = (b.new_value(), b.new_value());
        b.write_var(0, then_b, t);
        b.write_var(0, else_b, e);
        b.add_pred(join, then_b);
        b.add_pred(join, else_b);
        b.seal_block(join);
        let v = b.read_var(0, join);
        b.finish();
        assert!(b.is_phi(v));
        assert_eq!(b.phi_operands(v), vec![(then_b, t), (else_b, e)]);
        assert_eq!(b.phis_in(join).collect::<Vec<_>>(), vec![v]);
    }

    #[test]
    fn diamond_with_equal_values_is_trivial() {
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        let (then_b, else_b, join) = (b.new_block(), b.new_block(), b.new_block());
        for arm in [then_b, else_b] {
            b.add_pred(arm, entry);
            b.seal_block(arm);
            b.add_pred(join, arm);
        }
        b.seal_block(join);
        let v = b.read_var(0, join);
        b.finish();
        assert_eq!(b.resolve(v), v0);
        assert_eq!(b.phis_in(join).count(), 0);
    }

    #[test]
    fn loop_header_phi_resolves_at_seal() {
        // entry -> header <-> body; header also exits. The variable is
        // incremented in the body, so the header phi is non-trivial.
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        let header = b.new_block();
        b.add_pred(header, entry);
        let body = b.new_block();
        b.add_pred(body, header);
        b.seal_block(body);
        let at_top = b.read_var(0, header); // incomplete phi
        let inc = b.new_value();
        b.write_var(0, body, inc);
        b.add_pred(header, body);
        b.seal_block(header);
        b.finish();
        assert!(b.is_phi(at_top));
        assert_eq!(b.phi_operands(at_top), vec![(entry, v0), (body, inc)]);
    }

    #[test]
    fn loop_invariant_variable_needs_no_phi() {
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        let header = b.new_block();
        b.add_pred(header, entry);
        let body = b.new_block();
        b.add_pred(body, header);
        b.seal_block(body);
        let at_top = b.read_var(0, header);
        // No write in the body: the back edge carries the same value.
        b.add_pred(header, body);
        b.seal_block(header);
        b.finish();
        assert_eq!(b.resolve(at_top), v0);
    }

    #[test]
    fn unreachable_read_is_undef() {
        let mut b = SsaBuilder::new();
        let orphan = b.new_block();
        b.seal_block(orphan);
        assert_eq!(b.read_var(7, orphan), UNDEF);
    }

    #[test]
    fn deep_single_pred_chain_reads_without_recursion() {
        // 200k straight-line blocks: the variable is written once at the
        // top and read at the bottom. The read walk must traverse the
        // whole chain with its explicit stack — the old recursive
        // implementation overflowed the host stack around 100k here.
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        let mut prev = entry;
        for _ in 0..200_000 {
            let blk = b.new_block();
            b.add_pred(blk, prev);
            b.seal_block(blk);
            prev = blk;
        }
        let got = b.read_var(0, prev);
        assert_eq!(b.resolve(got), v0);
    }

    #[test]
    fn deep_diamond_chain_seals_without_recursion() {
        // 100k sequential diamonds, each writing the variable in one arm:
        // every join needs a phi whose operands come from the previous
        // join's phi — the longest acyclic chain the seal path walks.
        let mut b = SsaBuilder::new();
        let entry = b.new_block();
        b.seal_block(entry);
        let v0 = b.new_value();
        b.write_var(0, entry, v0);
        let mut prev = entry;
        for _ in 0..100_000 {
            let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
            b.add_pred(t, prev);
            b.add_pred(e, prev);
            b.seal_block(t);
            b.seal_block(e);
            let w = b.new_value();
            b.write_var(0, t, w);
            b.add_pred(join, t);
            b.add_pred(join, e);
            b.seal_block(join);
            prev = join;
        }
        let v = b.read_var(0, prev);
        b.finish();
        assert!(b.is_phi(v));
    }

    #[test]
    fn parallel_copies_emit_in_dependency_order() {
        // b <- a must run before a is clobbered by a <- c.
        let out = sequence_parallel_copies(&[(0, 2), (1, 0)], 9);
        assert_eq!(out, vec![(1, 0), (0, 2)]);
    }

    #[test]
    fn parallel_copy_swap_goes_through_scratch() {
        let out = sequence_parallel_copies(&[(0, 1), (1, 0)], 9);
        assert_eq!(out, vec![(9, 0), (0, 1), (1, 9)]);
    }

    #[test]
    fn parallel_copy_three_cycle() {
        let out = sequence_parallel_copies(&[(0, 1), (1, 2), (2, 0)], 9);
        // Simulate to verify: start r0=100, r1=101, r2=102.
        let mut regs = [100u64, 101, 102, 0, 0, 0, 0, 0, 0, 0];
        for (d, s) in out {
            regs[d as usize] = regs[s as usize];
        }
        assert_eq!(&regs[..3], &[101, 102, 100]);
    }

    #[test]
    fn self_copies_are_dropped() {
        assert!(sequence_parallel_copies(&[(3, 3)], 9).is_empty());
    }
}
