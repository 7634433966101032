//! Instrumentation: the engine's trace consumers.
//!
//! Rather than materializing full access traces and replaying them (the
//! Python TeAAL flow), the engine streams every access event into
//! [`Instruments`] as it executes. Channels apply the binding semantics on
//! line (buffet epoch dedup, cache replay, eager subtree fills) so that
//! the per-component action counts of paper §4.3 fall out at the end.
//!
//! A touch names its element by `(level, position)` in the CSF storage
//! the walk reads, so every piece of per-element state is an array entry,
//! not a hash-map probe: the epoch of an element's last buffet fill, its
//! cache line-sequence id, the cache's line → slot index, and the shard
//! fill log that the merge deduplicates. The per-level arrays are
//! allocated on their first use, at the level's length.

use std::collections::BTreeMap;

use teaal_fibertree::{FiberView, MergeRecord, PayloadView};

use crate::table::KeyTable;

/// End-of-list marker for [`Lru`]'s recency links and its line index.
const NIL: usize = usize::MAX;

/// One resident line of an [`Lru`], linked into its recency list.
#[derive(Clone, Debug)]
struct LruLine {
    line: usize,
    prev: usize,
    next: usize,
}

/// LRU cache model with a fixed number of lines (fully associative; caches
/// in the modelled accelerators are small scratchpad-like structures).
///
/// Resident lines form a doubly linked list from most to least recently
/// used, so a hit and an eviction are both `O(1)`: the victim is the
/// list's tail, the line with the oldest last use. Line ids are dense
/// (a channel numbers its lines from zero as it first touches them), so
/// the line → slot index is a plain array.
#[derive(Clone, Debug)]
pub(crate) struct Lru {
    capacity_lines: usize,
    /// Line id → its slot in `slots`, [`NIL`] when not resident.
    index: Vec<usize>,
    slots: Vec<LruLine>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    /// Hits observed.
    pub(crate) hits: u64,
    /// Misses observed (each miss is a line fill).
    pub(crate) misses: u64,
}

impl Lru {
    /// Creates a cache with the given line capacity.
    pub(crate) fn new(capacity_lines: usize) -> Self {
        Lru {
            capacity_lines: capacity_lines.max(1),
            index: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses a line, recording a hit or a miss (with LRU eviction).
    pub(crate) fn access(&mut self, line: u64) -> bool {
        let line = usize::try_from(line).expect("line ids count touched elements");
        if line >= self.index.len() {
            self.index.resize(line + 1, NIL);
        }
        let slot = self.index[line];
        if slot != NIL {
            self.hits += 1;
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        self.misses += 1;
        let slot = if self.slots.len() >= self.capacity_lines {
            let victim = self.tail;
            self.unlink(victim);
            self.index[self.slots[victim].line] = NIL;
            self.slots[victim].line = line;
            victim
        } else {
            self.slots.push(LruLine {
                line,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.push_front(slot);
        self.index[line] = slot;
        false
    }

    fn unlink(&mut self, slot: usize) {
        let LruLine { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }
}

/// Static configuration of one tensor's traffic channel, resolved from the
/// binding specification by the model layer.
#[derive(Clone, Debug, Default)]
pub struct ChannelCfg {
    /// Bits moved per element touch, per working rank — ordered
    /// top-to-bottom (the tensor's working rank order).
    pub rank_bits: Vec<(String, u64)>,
    /// Explicitly managed buffer: data re-fills when this loop rank's
    /// iteration advances (buffet `evict-on`).
    pub evict_on: Option<String>,
    /// Eager binding: touching an element of this rank fills the entire
    /// subtree below it.
    pub eager_rank: Option<String>,
    /// Whether misses/fills count as DRAM traffic.
    pub dram_backed: bool,
    /// Optional cache in front of DRAM: capacity in lines and line size.
    pub cache_lines: Option<usize>,
    /// Cache line size in bits.
    pub line_bits: u64,
}

impl ChannelCfg {
    /// A fully-buffered default: every element is fetched from DRAM once.
    pub fn fully_buffered(rank_bits: Vec<(String, u64)>) -> Self {
        ChannelCfg {
            rank_bits,
            dram_backed: true,
            line_bits: 512,
            ..ChannelCfg::default()
        }
    }

    pub(crate) fn bits_of(&self, rank: &str) -> u64 {
        self.rank_bits
            .iter()
            .find(|(r, _)| r == rank)
            .map(|(_, b)| *b)
            .unwrap_or(96)
    }

    fn rank_pos(&self, rank: &str) -> Option<usize> {
        self.rank_bits.iter().position(|(r, _)| r == rank)
    }

    /// Resolves a working rank's touch behaviour once, so the touches
    /// themselves do no string work. A rank missing from `rank_bits`
    /// (such as a joined `"K/M"` level) gets the 96-bit default, and is
    /// never below the eager rank.
    pub(crate) fn slot(&self, rank: &str) -> RankSlot {
        let eager = match self.eager_rank.as_deref() {
            None => Eager::Plain,
            Some(er) if er == rank => Eager::Root {
                start: self.rank_pos(er).unwrap_or(0),
            },
            Some(er) => match (self.rank_pos(er), self.rank_pos(rank)) {
                (Some(e), Some(r)) if r > e => Eager::Below,
                _ => Eager::Plain,
            },
        };
        RankSlot {
            bits: self.bits_of(rank),
            eager,
        }
    }
}

/// How a touch of one working rank interacts with an eager binding.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Eager {
    /// No eager binding applies: the element itself is filled.
    Plain,
    /// The eager rank: a fill brings the whole subtree, whose deeper
    /// ranks start at `rank_bits[start + 1]`.
    Root { start: usize },
    /// Below the eager rank: already on chip, never filled.
    Below,
}

/// One working rank of a channel, resolved by [`ChannelCfg::slot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RankSlot {
    /// Bits moved per element touch.
    bits: u64,
    eager: Eager,
}

/// Per-element state of one CSF level of a channel's tensor, indexed by
/// the element's position in the level. Each array is allocated on the
/// first touch that needs it, at the level's length.
#[derive(Clone, Debug, Default)]
struct LevelMarks {
    len: usize,
    /// Buffet path: one plus the epoch of the element's last fill, `0`
    /// for never filled.
    stamps: Vec<u64>,
    /// Cache path: one plus the element's line-sequence id, `0` for not
    /// yet numbered.
    ids: Vec<u64>,
}

impl LevelMarks {
    #[inline]
    fn stamps(&mut self) -> &mut [u64] {
        if self.stamps.is_empty() {
            self.stamps = vec![0; self.len];
        }
        &mut self.stamps
    }

    #[inline]
    fn ids(&mut self) -> &mut [u64] {
        if self.ids.is_empty() {
            self.ids = vec![0; self.len];
        }
        &mut self.ids
    }
}

/// Per-tensor traffic accounting.
///
/// Touches name elements by `(level, position)` in the tensor's CSF
/// storage ([`FiberView::csf_position`]), and the per-element state — the
/// buffet epoch of the last fill, the cache line-sequence id — lives in
/// per-level arrays indexed by position, sized to the tensor the walk
/// reads.
#[derive(Clone, Debug, Default)]
pub struct TensorChannel {
    cfg: ChannelCfg,
    /// Element touches per working rank.
    pub reads_by_rank: BTreeMap<String, u64>,
    /// Bits filled from DRAM.
    pub fill_bits: u64,
    /// Bits read on-chip (buffer-side traffic).
    pub buffer_read_bits: u64,
    /// The cache model, when configured.
    cache: Option<Lru>,
    marks: Vec<LevelMarks>,
    epoch: u64,
    next_line: u64,
    line_fill: u64,
    /// When this channel runs inside a shard whose fills must be
    /// deduplicated against other shards (fully-buffered tensors, whose
    /// single epoch spans all shards), every fill event is also logged
    /// here as `(level, position, bits)` so the merge can keep only each
    /// element's first fill in shard order — exactly the fill the
    /// sequential run would charge.
    shard_log: Option<Vec<(usize, usize, u64)>>,
}

impl TensorChannel {
    /// Creates a channel with the given configuration.
    pub fn new(cfg: ChannelCfg) -> Self {
        let cache = cfg.cache_lines.map(Lru::new);
        TensorChannel {
            cfg,
            cache,
            ..TensorChannel::default()
        }
    }

    /// The channel's configuration.
    pub fn cfg(&self) -> &ChannelCfg {
        &self.cfg
    }

    /// Sizes the per-element state to a tensor with these CSF level
    /// lengths ([`teaal_fibertree::CompressedTensor::level_len`]). A
    /// channel already bound to the same lengths keeps its state; nothing
    /// is allocated until a touch needs it.
    pub(crate) fn bind_levels(&mut self, lens: &[usize]) {
        if !self.marks.iter().map(|m| m.len).eq(lens.iter().copied()) {
            self.marks = lens
                .iter()
                .map(|&len| LevelMarks {
                    len,
                    ..LevelMarks::default()
                })
                .collect();
        }
    }

    /// Starts a new buffet epoch: the loop advanced on this channel's
    /// `evict_on` rank.
    pub(crate) fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Records a touch of the element at `pos` of CSF level `level`,
    /// through a resolved rank. `payload` lets eager bindings size the
    /// subtree fill. The touch count itself is the caller's: the engine
    /// keeps it in a dense per-walk array and folds it into
    /// [`TensorChannel::reads_by_rank`].
    pub(crate) fn touch(
        &mut self,
        slot: &RankSlot,
        level: usize,
        pos: usize,
        payload: PayloadView<'_>,
    ) {
        let bits = slot.bits;
        self.buffer_read_bits += bits;
        // Under an eager binding, only the eager rank generates fills;
        // deeper touches are on-chip.
        if slot.eager == Eager::Below {
            return;
        }

        if let Some(cache) = &mut self.cache {
            let bits_per_line = self.cfg.line_bits.max(bits);
            let per_line = (bits_per_line / bits.max(1)).max(1);
            // Elements are numbered in first-touch order, and consecutive
            // numbers share a line.
            let id = &mut self.marks[level].ids()[pos];
            if *id == 0 {
                self.next_line += 1;
                *id = self.next_line;
            }
            if !cache.access((*id - 1) / per_line) && self.cfg.dram_backed {
                let fill = match slot.eager {
                    Eager::Root { start } => self.subtree_bits(bits, start, payload),
                    _ => bits_per_line,
                };
                self.fill_bits += fill;
            }
            return;
        }

        // Buffet / default path: first touch per epoch fills from DRAM.
        if self.cfg.dram_backed {
            let stamp = self.epoch + 1;
            let mark = &mut self.marks[level].stamps()[pos];
            if *mark == stamp {
                return;
            }
            *mark = stamp;
            let fill = match slot.eager {
                Eager::Root { start } => self.subtree_bits(bits, start, payload),
                _ => bits,
            };
            self.fill_bits += fill;
            self.line_fill += 1;
            if let Some(log) = &mut self.shard_log {
                log.push((level, pos, fill));
            }
        }
    }

    /// Starts a fresh per-shard channel with the same configuration.
    /// `log_fills` enables the fill log for merge-time deduplication
    /// (required when the channel's buffet epoch spans shard boundaries,
    /// i.e. the effective `evict_on` is no loop rank). Channels with a
    /// cache cannot shard — the engine falls back to sequential first.
    pub(crate) fn fork_shard(&self, log_fills: bool) -> TensorChannel {
        debug_assert!(self.cache.is_none(), "cached channels are not shardable");
        let mut ch = TensorChannel::new(self.cfg.clone());
        if log_fills {
            ch.shard_log = Some(Vec::new());
        }
        ch
    }

    /// Folds a drained shard channel into this one (shards absorbed in
    /// shard order). Touch counters are purely additive; fills are
    /// additive when the shard ran without a fill log (per-shard epochs
    /// partition the sequential epochs) and first-fill-wins deduplicated
    /// by element position otherwise. After absorbing, only the public
    /// counters are meaningful — the internal dedup state is merge
    /// bookkeeping, not a resumable simulation state.
    pub(crate) fn absorb_shard(&mut self, shard: TensorChannel) {
        for (r, n) in shard.reads_by_rank {
            *self.reads_by_rank.entry(r).or_insert(0) += n;
        }
        self.buffer_read_bits += shard.buffer_read_bits;
        match shard.shard_log {
            Some(log) => {
                // Every shard walked the same tensor: adopt its shape.
                let lens: Vec<usize> = shard.marks.iter().map(|m| m.len).collect();
                self.bind_levels(&lens);
                for (level, pos, bits) in log {
                    let mark = &mut self.marks[level].stamps()[pos];
                    if *mark == 0 {
                        *mark = 1;
                        self.fill_bits += bits;
                        self.line_fill += 1;
                    }
                }
            }
            None => {
                self.fill_bits += shard.fill_bits;
                self.line_fill += shard.line_fill;
            }
        }
    }

    /// Bits of an eager fill: the eager element (`bits`) plus every
    /// element beneath it, each deeper rank charged its configured width
    /// (working-order depth, starting below `rank_bits[start]`).
    fn subtree_bits(&self, bits: u64, start: usize, payload: PayloadView<'_>) -> u64 {
        fn walk(f: FiberView<'_>, ranks: &[(String, u64)], depth: usize, acc: &mut u64) {
            if depth >= ranks.len() {
                return;
            }
            let bits = ranks[depth].1;
            *acc += bits * f.occupancy() as u64;
            for pos in 0..f.occupancy() {
                if let PayloadView::Fiber(child) = f.payload_at(pos) {
                    walk(child, ranks, depth + 1, acc);
                }
            }
        }
        let mut acc = bits;
        if let PayloadView::Fiber(f) = payload {
            walk(f, &self.cfg.rank_bits[start..], 1, &mut acc);
        }
        acc
    }

    /// DRAM fill events (element- or line-granular depending on config).
    pub fn fills(&self) -> u64 {
        match &self.cache {
            Some(c) => c.misses,
            None => self.line_fill,
        }
    }
}

/// Output-side accounting: first writes, reduction updates, and partial
/// output drains across reduction epochs.
#[derive(Clone, Debug, Default)]
pub struct OutputChannel {
    /// Bits per output element (leaf coordinate + payload).
    pub elem_bits: u64,
    /// Partial outputs drain when this loop rank advances.
    pub evict_on: Option<String>,
    /// First writes of each output point.
    pub writes: u64,
    /// Reduction updates of existing points.
    pub updates: u64,
    /// Bits drained to DRAM before the final write (partial outputs).
    pub drain_bits: u64,
    /// Bits re-filled from DRAM for revisited partial outputs.
    pub refill_bits: u64,
    /// The current partial-output epoch. Each output point keeps the
    /// epoch that last touched it next to its value, in the engine's
    /// accumulator.
    epoch: u64,
}

impl OutputChannel {
    /// Creates an output channel.
    pub fn new(elem_bits: u64, evict_on: Option<String>) -> Self {
        OutputChannel {
            elem_bits,
            evict_on,
            ..OutputChannel::default()
        }
    }

    /// Starts a new reduction epoch: the loop advanced on `evict_on`.
    pub(crate) fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Records the first write of a fresh output point and returns the
    /// epoch to store with it.
    pub(crate) fn write(&mut self) -> u64 {
        self.writes += 1;
        self.epoch
    }

    /// Records a reduction update of a point last touched in epoch
    /// `*last`, and stamps it with the current epoch. A point revisited in
    /// a later epoch had its partial value drained, which must return.
    /// Without `evict_on` the epoch never advances, so nothing drains.
    pub(crate) fn update(&mut self, last: &mut u64) {
        self.updates += 1;
        if *last != self.epoch {
            self.drain_bits += self.elem_bits;
            self.refill_bits += self.elem_bits;
            *last = self.epoch;
        }
    }

    /// Starts a fresh per-shard output channel with the same
    /// configuration.
    pub(crate) fn fork_shard(&self) -> OutputChannel {
        OutputChannel::new(self.elem_bits, self.evict_on.clone())
    }

    /// Folds a drained shard output channel into this one, additively.
    /// Exact when shards write disjoint output keys: every record of a
    /// key stays within one shard, so first-write/update splits and
    /// epoch-delta drain/refill events are preserved per key. When
    /// shards overlap on keys, the engine instead reconstitutes `writes`
    /// and `updates` from the merged accumulators before reporting.
    pub(crate) fn absorb_shard(&mut self, shard: OutputChannel) {
        self.writes += shard.writes;
        self.updates += shard.updates;
        self.drain_bits += shard.drain_bits;
        self.refill_bits += shard.refill_bits;
    }
}

/// Per-space-id compute counting, for load-imbalance-aware timing.
///
/// Space ids are dense slots of a `KeyTable`, each with one
/// `(muls, adds)` pair, so a charge is an array add and every statistic
/// is one linear scan. The first id sets the key width (the plan's
/// number of space ranks); a plan with none charges one empty key.
#[derive(Clone, Debug)]
pub struct ComputeCounter {
    spaces: KeyTable,
    /// Multiplies and additions per slot of `spaces`.
    ops: Vec<(u64, u64)>,
}

impl Default for ComputeCounter {
    fn default() -> Self {
        ComputeCounter {
            spaces: KeyTable::new(0),
            ops: Vec::new(),
        }
    }
}

impl ComputeCounter {
    /// The slot of space id `space`, added with no counts if new.
    pub(crate) fn slot(&mut self, space: &[u64]) -> usize {
        if self.ops.is_empty() {
            self.spaces = KeyTable::new(space.len());
        }
        let (slot, fresh) = self.spaces.slot(space);
        if fresh {
            self.ops.push((0, 0));
        }
        slot
    }

    /// Charges multiplies and additions to `slot`.
    #[inline]
    pub(crate) fn charge(&mut self, slot: usize, muls: u64, adds: u64) {
        let (m, a) = &mut self.ops[slot];
        *m += muls;
        *a += adds;
    }

    /// Adds a shard's counts space id by space id. The shard's top-rank
    /// positions restart at zero, so `top_offset` (the positions earlier
    /// shards consumed; zero when the top rank is not a space rank)
    /// shifts each id's leading component into the sequential numbering.
    pub(crate) fn absorb_shard(&mut self, shard: ComputeCounter, top_offset: u64) {
        let mut key = Vec::new();
        for (s, &(m, a)) in shard.ops.iter().enumerate() {
            key.clear();
            key.extend_from_slice(shard.spaces.key(s));
            if let Some(c0) = key.first_mut() {
                *c0 += top_offset;
            }
            let slot = self.slot(&key);
            self.charge(slot, m, a);
        }
    }

    /// Total multiplies.
    pub fn total_muls(&self) -> u64 {
        self.ops.iter().map(|&(m, _)| m).sum()
    }

    /// Total additions.
    pub fn total_adds(&self) -> u64 {
        self.ops.iter().map(|&(_, a)| a).sum()
    }

    /// The busiest PE's operation count (mul + add per space id).
    pub fn max_per_pe(&self) -> u64 {
        self.ops.iter().map(|&(m, a)| m + a).max().unwrap_or(0)
    }

    /// Number of distinct space ids charged at least one operation.
    pub fn spaces(&self) -> usize {
        self.ops.iter().filter(|&&(m, a)| m + a > 0).count()
    }
}

/// All instrumentation for one Einsum execution.
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// Per-input-tensor channels.
    pub tensors: BTreeMap<String, TensorChannel>,
    /// Output accounting.
    pub output: OutputChannel,
    /// Intersection-unit comparisons per loop rank.
    pub intersect_by_rank: BTreeMap<String, u64>,
    /// Coordinate visits per loop rank (sequencer work).
    pub loop_visits: BTreeMap<String, u64>,
    /// Compute operations per space id.
    pub compute: ComputeCounter,
    /// Online merge jobs.
    pub merges: Vec<MergeRecord>,
}

impl Instruments {
    /// Registers a channel for a tensor.
    pub fn add_tensor(&mut self, tensor: &str, cfg: ChannelCfg) {
        self.tensors
            .insert(tensor.to_string(), TensorChannel::new(cfg));
    }

    /// Starts a fresh per-shard instrument set mirroring this one's
    /// channel configurations. `log_fills(tensor, cfg)` decides, per
    /// channel, whether fills must be logged for merge-time
    /// deduplication (see [`TensorChannel::fork_shard`]).
    pub(crate) fn fork_shard<F>(&self, log_fills: F) -> Instruments
    where
        F: Fn(&str, &ChannelCfg) -> bool,
    {
        Instruments {
            tensors: self
                .tensors
                .iter()
                .map(|(name, ch)| (name.clone(), ch.fork_shard(log_fills(name, ch.cfg()))))
                .collect(),
            output: self.output.fork_shard(),
            ..Instruments::default()
        }
    }

    /// Folds a drained shard's instruments into this one. Shards must be
    /// absorbed in shard order — fill deduplication and the output
    /// channel's merge semantics are first-wins. Per-rank counters merge
    /// additively and preserve entry creation (a rank visited zero times
    /// in a shard still materializes its entry, as in the sequential
    /// run). `space_offset` renumbers the shard's space ids (see
    /// [`ComputeCounter::absorb_shard`]).
    pub(crate) fn absorb_shard(&mut self, shard: Instruments, space_offset: u64) {
        for (name, ch) in shard.tensors {
            self.tensors
                .get_mut(&name)
                .expect("shard channels mirror the parent's")
                .absorb_shard(ch);
        }
        self.output.absorb_shard(shard.output);
        for (r, n) in shard.intersect_by_rank {
            *self.intersect_by_rank.entry(r).or_insert(0) += n;
        }
        for (r, n) in shard.loop_visits {
            *self.loop_visits.entry(r).or_insert(0) += n;
        }
        self.compute.absorb_shard(shard.compute, space_offset);
        debug_assert!(shard.merges.is_empty(), "shards do not run online merges");
    }

    /// Total intersection comparisons.
    pub fn total_intersections(&self) -> u64 {
        self.intersect_by_rank.values().sum()
    }
}

/// Analytical (expected-value) counterpart of one [`TensorChannel`]: the
/// same traffic quantities the instrumented channel counts, carried as
/// real numbers because a statistical model produces fractional expected
/// counts.
#[derive(Clone, Debug, Default)]
pub struct EstimatedChannel {
    /// Expected element touches (counterpart of `reads_by_rank` summed).
    pub reads: f64,
    /// Expected on-chip bits read (counterpart of `buffer_read_bits`).
    pub buffer_read_bits: f64,
    /// Expected bits filled from DRAM (counterpart of `fill_bits`).
    pub fill_bits: f64,
}

/// Analytical counterparts of one Einsum's [`Instruments`]: everything
/// [`crate::report::EinsumStats`] carries, as expected values. Built by
/// `sim::estimate` from per-tensor rank statistics instead of execution;
/// [`EstimatedCounts::into_einsum_stats`] rounds it into the exact report
/// shape so the measured and modeled paths share one time/energy
/// analysis.
#[derive(Clone, Debug, Default)]
pub struct EstimatedCounts {
    /// Per-tensor expected traffic, keyed by tensor name.
    pub tensors: BTreeMap<String, EstimatedChannel>,
    /// Expected visits per loop rank (counterpart of `loop_visits`).
    pub loop_visits: BTreeMap<String, f64>,
    /// Expected intersection-unit comparisons per loop rank.
    pub intersect_by_rank: BTreeMap<String, f64>,
    /// Expected multiplications.
    pub muls: f64,
    /// Expected additions (term combines plus reduction updates).
    pub adds: f64,
    /// Expected ops on the busiest PE (counterpart of `max_per_pe`).
    pub max_pe_ops: f64,
    /// Expected distinct spatial positions (counterpart of `spaces`).
    pub spaces: f64,
    /// Expected first writes of output elements.
    pub output_writes: f64,
    /// Expected in-place reduction updates.
    pub output_updates: f64,
    /// Expected partial-output drain+refill bits across epochs.
    pub output_partial_bits: f64,
    /// Expected output footprint bits written to DRAM.
    pub output_write_bits: f64,
    /// Expected merge work as `(tensor, elements, ways)` groups
    /// (counterpart of [`MergeRecord`], fractional fan-in allowed).
    pub merges: Vec<(String, f64, f64)>,
}

impl EstimatedCounts {
    /// Rounds the expected values into an [`crate::report::EinsumStats`],
    /// listing tensors in `tensor_order` (the plan's tensor-plan order,
    /// matching the instrumented path).
    pub fn into_einsum_stats(
        self,
        einsum: &str,
        tensor_order: &[String],
    ) -> crate::report::EinsumStats {
        let r = |v: f64| -> u64 {
            if v.is_finite() && v > 0.0 {
                v.round() as u64
            } else {
                0
            }
        };
        let traffic = tensor_order
            .iter()
            .map(|t| {
                let ch = self.tensors.get(t).cloned().unwrap_or_default();
                crate::report::TensorTraffic {
                    tensor: t.clone(),
                    fill_bytes: r(ch.fill_bits / 8.0),
                    buffer_read_bytes: r(ch.buffer_read_bits / 8.0),
                    reads: r(ch.reads),
                }
            })
            .collect();
        let merges = self
            .merges
            .iter()
            .filter(|(_, e, w)| *e >= 0.5 && *w > 1.0)
            .map(|(t, e, w)| MergeRecord {
                tensor: t.clone(),
                elems: r(*e),
                ways: r(w.max(2.0)),
            })
            .collect();
        crate::report::EinsumStats {
            einsum: einsum.to_string(),
            traffic,
            output_write_bytes: r(self.output_write_bits / 8.0),
            output_partial_bytes: r(self.output_partial_bits / 8.0),
            output_writes: r(self.output_writes),
            output_updates: r(self.output_updates),
            muls: r(self.muls),
            adds: r(self.adds),
            max_pe_ops: r(self.max_pe_ops),
            spaces: r(self.spaces) as usize,
            intersections: r(self.intersect_by_rank.values().sum()),
            merges,
            loop_visits: self
                .loop_visits
                .iter()
                .map(|(k, v)| (k.clone(), r(*v)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    const LEAF: PayloadView<'static> = PayloadView::Val(1.0);

    /// A channel bound to a one-level tensor of 16 elements.
    fn channel(cfg: ChannelCfg) -> TensorChannel {
        let mut ch = TensorChannel::new(cfg);
        ch.bind_levels(&[16]);
        ch
    }

    #[test]
    fn lru_hits_and_misses() {
        let mut c = Lru::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1));
        assert!(!c.access(3)); // evicts 2 (LRU)
        assert!(!c.access(2));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 4);
    }

    /// The naive model the linked-list cache replaced: every line keeps
    /// its last-use stamp and a miss at capacity evicts the oldest one.
    struct ScanLru {
        capacity: usize,
        lines: Vec<(u64, u64)>,
        clock: u64,
    }

    impl ScanLru {
        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            if let Some(l) = self.lines.iter_mut().find(|(id, _)| *id == line) {
                l.1 = self.clock;
                return true;
            }
            if self.lines.len() >= self.capacity {
                let victim = (0..self.lines.len())
                    .min_by_key(|&i| self.lines[i].1)
                    .expect("a full cache has lines");
                self.lines.swap_remove(victim);
            }
            self.lines.push((line, self.clock));
            false
        }
    }

    #[test]
    fn lru_evicts_like_the_scanning_reference() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 7, 256] {
            for universe in [capacity as u64 + 1, 2 * capacity as u64 + 3, 1024] {
                let mut lru = Lru::new(capacity);
                let mut reference = ScanLru {
                    capacity,
                    lines: Vec::new(),
                    clock: 0,
                };
                for step in 0..20_000 {
                    let line = next() % universe;
                    assert_eq!(
                        lru.access(line),
                        reference.access(line),
                        "capacity {capacity}, universe {universe}, step {step}, line {line}"
                    );
                }
                assert_eq!(lru.hits + lru.misses, 20_000);
            }
        }
    }

    #[test]
    fn buffet_epoch_dedup() {
        let mut cfg = ChannelCfg::fully_buffered(vec![("K".to_string(), 64)]);
        cfg.evict_on = Some("M".into());
        let k = cfg.slot("K");
        let mut ch = channel(cfg);
        ch.touch(&k, 0, 1, LEAF);
        ch.touch(&k, 0, 1, LEAF); // same epoch: no refill
        assert_eq!(ch.fill_bits, 64);
        ch.advance_epoch();
        ch.touch(&k, 0, 1, LEAF); // new epoch: refill
        assert_eq!(ch.fill_bits, 128);
        assert_eq!(ch.buffer_read_bits, 3 * 64);
    }

    #[test]
    fn slots_resolve_defaults_and_eager_depth() {
        let mut cfg =
            ChannelCfg::fully_buffered(vec![("K".to_string(), 32), ("M".to_string(), 64)]);
        // A joined level name is no working rank: default width, and
        // never below the eager rank.
        assert_eq!(
            cfg.slot("K/M"),
            RankSlot {
                bits: 96,
                eager: Eager::Plain
            }
        );
        cfg.eager_rank = Some("K".into());
        assert_eq!(cfg.slot("K").eager, Eager::Root { start: 0 });
        assert_eq!(cfg.slot("M").eager, Eager::Below);
        assert_eq!(cfg.slot("K/M").eager, Eager::Plain);
    }

    #[test]
    fn fully_buffered_fetches_once() {
        let cfg = ChannelCfg::fully_buffered(vec![("K".to_string(), 32)]);
        let k = cfg.slot("K");
        let mut ch = channel(cfg);
        for _ in 0..10 {
            ch.touch(&k, 0, 7, LEAF);
        }
        ch.touch(&k, 0, 8, LEAF);
        assert_eq!(ch.fill_bits, 64); // two distinct elements
    }

    #[test]
    fn cached_channel_counts_line_misses() {
        let mut cfg = ChannelCfg::fully_buffered(vec![("K".to_string(), 64)]);
        cfg.cache_lines = Some(1);
        cfg.line_bits = 128; // two elements per line
        let k = cfg.slot("K");
        let mut ch = channel(cfg);
        ch.touch(&k, 0, 1, LEAF); // line 0 miss
        ch.touch(&k, 0, 2, LEAF); // line 0 hit
        ch.touch(&k, 0, 3, LEAF); // line 1 miss (evicts line 0)
        ch.touch(&k, 0, 1, LEAF); // line 0 miss again
        assert_eq!(ch.fills(), 3);
        assert_eq!(ch.fill_bits, 3 * 128);
    }

    #[test]
    fn output_partial_drains_across_epochs() {
        let mut out = OutputChannel::new(96, Some("K2".into()));
        let mut last = out.write();
        out.advance_epoch();
        out.update(&mut last); // revisited → drain + refill
        out.update(&mut last); // same epoch → no extra traffic
        assert_eq!(out.writes, 1);
        assert_eq!(out.updates, 2);
        assert_eq!(out.drain_bits, 96);
        assert_eq!(out.refill_bits, 96);
    }

    #[test]
    fn compute_counter_tracks_imbalance() {
        let mut c = ComputeCounter::default();
        let pe0 = c.slot(&[0]);
        c.charge(pe0, 10, 0);
        let pe1 = c.slot(&[1]);
        c.charge(pe1, 2, 0);
        assert_eq!(c.slot(&[1]), pe1);
        c.charge(pe1, 0, 3);
        assert_eq!(c.total_muls(), 12);
        assert_eq!(c.total_adds(), 3);
        assert_eq!(c.max_per_pe(), 10);
        assert_eq!(c.spaces(), 2);
    }

    /// The per-space-id counts as ordered maps: an id has a `muls`
    /// (`adds`) entry once a nonzero multiply (addition) count reached it.
    #[derive(Default)]
    struct MapCounter {
        muls: BTreeMap<Vec<u64>, u64>,
        adds: BTreeMap<Vec<u64>, u64>,
    }

    impl MapCounter {
        fn charge(&mut self, space: &[u64], muls: u64, adds: u64) {
            for (counts, n) in [(&mut self.muls, muls), (&mut self.adds, adds)] {
                if n > 0 {
                    *counts.entry(space.to_vec()).or_insert(0) += n;
                }
            }
        }

        fn max_per_pe(&self) -> u64 {
            let mut per: BTreeMap<&Vec<u64>, u64> = BTreeMap::new();
            for (k, v) in self.muls.iter().chain(&self.adds) {
                *per.entry(k).or_insert(0) += v;
            }
            per.values().copied().max().unwrap_or(0)
        }

        fn spaces(&self) -> usize {
            let keys: BTreeSet<&Vec<u64>> = self.muls.keys().chain(self.adds.keys()).collect();
            keys.len()
        }
    }

    /// The channel semantics before touches were keyed by position, over
    /// ordered maps: the last fill epoch and the line-sequence id of each
    /// element, keyed by its `(level, position)`, and the scanning LRU.
    struct MapChannel {
        seen: BTreeMap<(usize, usize), u64>,
        line_of: BTreeMap<(usize, usize), u64>,
        next_line: u64,
        epoch: u64,
        cache: Option<ScanLru>,
        hits: u64,
        fill_bits: u64,
        buffer_read_bits: u64,
        line_fill: u64,
        log: Vec<((usize, usize), u64)>,
    }

    impl MapChannel {
        fn new(cfg: &ChannelCfg) -> Self {
            MapChannel {
                seen: BTreeMap::new(),
                line_of: BTreeMap::new(),
                next_line: 0,
                epoch: 0,
                cache: cfg.cache_lines.map(|capacity| ScanLru {
                    capacity: capacity.max(1),
                    lines: Vec::new(),
                    clock: 0,
                }),
                hits: 0,
                fill_bits: 0,
                buffer_read_bits: 0,
                line_fill: 0,
                log: Vec::new(),
            }
        }

        /// A touch with a leaf payload (an eager fill is the element
        /// alone).
        fn touch(&mut self, cfg: &ChannelCfg, slot: &RankSlot, key: (usize, usize)) {
            let bits = slot.bits;
            self.buffer_read_bits += bits;
            if slot.eager == Eager::Below {
                return;
            }
            let eager = matches!(slot.eager, Eager::Root { .. });
            if let Some(cache) = &mut self.cache {
                let bits_per_line = cfg.line_bits.max(bits);
                let per_line = (bits_per_line / bits.max(1)).max(1);
                let next_line = &mut self.next_line;
                let id = *self.line_of.entry(key).or_insert_with(|| {
                    *next_line += 1;
                    *next_line - 1
                });
                if cache.access(id / per_line) {
                    self.hits += 1;
                } else if cfg.dram_backed {
                    self.fill_bits += if eager { bits } else { bits_per_line };
                }
                return;
            }
            if cfg.dram_backed {
                if self.seen.insert(key, self.epoch) == Some(self.epoch) {
                    return;
                }
                self.fill_bits += bits;
                self.line_fill += 1;
                self.log.push((key, bits));
            }
        }

        fn fills(&self) -> u64 {
            match &self.cache {
                Some(c) => c.clock - self.hits,
                None => self.line_fill,
            }
        }
    }

    const LEVELS: usize = 3;
    const LEVEL_LEN: usize = 12;

    /// One channel configuration: three ranks of different widths, an
    /// optional eager rank, and either a buffet or a cache.
    fn arb_cfg() -> impl Strategy<Value = ChannelCfg> {
        (0u8..3, 0u8..3, 1usize..5, 64u64..300).prop_map(|(kind, eager, lines, line_bits)| {
            let mut cfg = ChannelCfg::fully_buffered(vec![
                ("K".to_string(), 32),
                ("M".to_string(), 64),
                ("N".to_string(), 48),
            ]);
            cfg.evict_on = Some("K".into());
            match kind {
                0 => {}
                1 => {
                    cfg.cache_lines = Some(lines);
                    cfg.line_bits = line_bits;
                }
                _ => cfg.dram_backed = false,
            }
            if eager == 1 {
                cfg.eager_rank = Some("M".into());
            }
            cfg
        })
    }

    /// Touches `(level, position, rank)`, with rank 3 standing for "end
    /// the buffet epoch" instead.
    fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        proptest::collection::vec((0..LEVELS, 0..LEVEL_LEN, 0usize..4), 0..120)
    }

    const RANKS: [&str; 3] = ["K", "M", "N"];

    fn replay(
        cfg: &ChannelCfg,
        ops: &[(usize, usize, usize)],
        ch: &mut TensorChannel,
        oracle: &mut MapChannel,
    ) {
        let slots: Vec<RankSlot> = RANKS.iter().map(|r| cfg.slot(r)).collect();
        for &(level, pos, rank) in ops {
            if rank == 3 {
                ch.advance_epoch();
                oracle.epoch += 1;
            } else {
                ch.touch(&slots[rank], level, pos, LEAF);
                oracle.touch(cfg, &slots[rank], (level, pos));
            }
        }
    }

    use proptest::prelude::*;

    /// One compute charge: a space id's words, multiplies, additions.
    type Charge = ((u64, u64, u64), u64, u64);

    fn arb_charges() -> impl Strategy<Value = Vec<Charge>> {
        proptest::collection::vec(((0u64..6, 0u64..3, 0u64..3), 0u64..4, 0u64..4), 0..40)
    }

    fn space_of(width: usize, words: (u64, u64, u64)) -> Vec<u64> {
        [words.0, words.1, words.2][..width].to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense counter counts what per-space-id maps count: charges
        /// in the parent, shards absorbed with and without a top-rank
        /// offset, and the shard-overlap fix-up's single addition.
        #[test]
        fn dense_compute_counter_matches_the_map_oracle(
            width in 0usize..4,
            parent in arb_charges(),
            shards in proptest::collection::vec((arb_charges(), 0u64..8), 0..4),
            overlap in proptest::collection::vec((0u64..6, 0u64..3, 0u64..3), 0..6),
        ) {
            let mut counter = ComputeCounter::default();
            let mut oracle = MapCounter::default();
            for &(words, m, a) in &parent {
                let space = space_of(width, words);
                let slot = counter.slot(&space);
                counter.charge(slot, m, a);
                oracle.charge(&space, m, a);
            }
            for (charges, offset) in &shards {
                let mut shard = ComputeCounter::default();
                for &(words, m, a) in charges {
                    let space = space_of(width, words);
                    let slot = shard.slot(&space);
                    shard.charge(slot, m, a);
                    let mut shifted = space.clone();
                    if let Some(c0) = shifted.first_mut() {
                        *c0 += offset;
                    }
                    oracle.charge(&shifted, m, a);
                }
                counter.absorb_shard(shard, *offset);
            }
            for &words in &overlap {
                let space = space_of(width, words);
                let slot = counter.slot(&space);
                counter.charge(slot, 0, 1);
                oracle.charge(&space, 0, 1);
            }
            prop_assert_eq!(counter.total_muls(), oracle.muls.values().sum::<u64>());
            prop_assert_eq!(counter.total_adds(), oracle.adds.values().sum::<u64>());
            prop_assert_eq!(counter.max_per_pe(), oracle.max_per_pe());
            prop_assert_eq!(counter.spaces(), oracle.spaces());
        }

        /// Position-indexed channels count exactly what the map-keyed
        /// semantics count: fill bits, buffer reads, element fills, and
        /// LRU hits and misses, across epochs and levels.
        #[test]
        fn position_keyed_channels_match_the_map_oracle(cfg in arb_cfg(), ops in arb_ops()) {
            let mut ch = TensorChannel::new(cfg.clone());
            ch.bind_levels(&[LEVEL_LEN; LEVELS]);
            let mut oracle = MapChannel::new(&cfg);
            replay(&cfg, &ops, &mut ch, &mut oracle);
            prop_assert_eq!(ch.fill_bits, oracle.fill_bits);
            prop_assert_eq!(ch.buffer_read_bits, oracle.buffer_read_bits);
            prop_assert_eq!(ch.fills(), oracle.fills());
            if let Some(cache) = &ch.cache {
                prop_assert_eq!(cache.hits, oracle.hits);
                prop_assert_eq!(cache.hits + cache.misses, oracle.cache.as_ref().unwrap().clock);
            }
        }

        /// Shards that log fills merge first-fill-wins in shard order:
        /// the merged channel charges each element's first fill across
        /// all shards, as one map of every shard's log would.
        #[test]
        fn shard_fill_logs_dedup_like_the_map_oracle(
            cfg in arb_cfg(),
            shards in proptest::collection::vec(arb_ops(), 1..4),
        ) {
            let mut cfg = cfg;
            cfg.cache_lines = None;
            let mut parent = TensorChannel::new(cfg.clone());
            let mut first: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            let mut buffer_read_bits = 0;
            for ops in &shards {
                let mut ch = parent.fork_shard(true);
                ch.bind_levels(&[LEVEL_LEN; LEVELS]);
                let mut oracle = MapChannel::new(&cfg);
                replay(&cfg, ops, &mut ch, &mut oracle);
                for (key, bits) in oracle.log {
                    first.entry(key).or_insert(bits);
                }
                buffer_read_bits += oracle.buffer_read_bits;
                parent.absorb_shard(ch);
            }
            prop_assert_eq!(parent.fill_bits, first.values().sum::<u64>());
            prop_assert_eq!(parent.fills(), first.len() as u64);
            prop_assert_eq!(parent.buffer_read_bits, buffer_read_bits);
        }
    }
}
