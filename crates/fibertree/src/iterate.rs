//! Co-iteration over fibers: streaming intersection, union, and
//! projection lookup.
//!
//! Sparse accelerators "sparsify" the iteration space (paper §2.4) by
//! co-iterating the operands of each loop rank. Multiplicative operands are
//! *intersected* (a point contributes only when all operands are present);
//! additive operands are *unioned*. The hardware that performs intersection
//! varies across designs, so the [`IntersectPolicy`] models the three unit
//! types of Table 3 — two-finger, leader-follower, and skip-ahead — and
//! reports the number of coordinate comparisons ("work") each would spend.
//!
//! Co-iteration is a *streaming dataflow of coordinate cursors* (in the
//! spirit of the Sparse Abstract Machine): [`intersect2_stream`],
//! [`intersect_stream`], and [`union_stream`] are lazy iterators over
//! [`FiberView`] cursors that emit one match at a time, never
//! materializing a match list. The matching eager functions
//! ([`intersect2`], [`intersect_many`], [`union_many`]) are thin wrappers
//! that drain a stream into a `Vec` — convenient for tests and small
//! fibers, while the simulator's engine consumes the streams directly.
//! Both report identical [`CoIterStats`]. An [`IntersectStream`] over one
//! or two compressed point fibers reads their coordinate arrays as raw
//! runs ([`crate::PointRun`]), as SAM's scanners and intersecters do,
//! with the cascade's exact charging.

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::fiber::Fiber;
use crate::view::{CoordKey, FiberView, PayloadView, PointRun};

/// The intersection unit type (Table 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Default)]
pub enum IntersectPolicy {
    /// Classic merge: two pointers advance one coordinate at a time.
    #[default]
    TwoFinger,
    /// The leader's coordinates are looked up in the followers; work is
    /// proportional to the leader's occupancy. `leader` is the operand
    /// index.
    LeaderFollower {
        /// Index of the leading operand.
        leader: usize,
    },
    /// Galloping/skip-ahead: pointers advance by exponentially probing,
    /// modelling ExTensor-style skip-ahead intersection.
    SkipAhead,
}

/// Result of co-iterating fibers: the work metric charged to the
/// intersection unit plus the number of emitted coordinates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoIterStats {
    /// Number of coordinate comparisons performed by the modelled unit.
    pub comparisons: u64,
    /// Number of coordinates emitted (i.e. matches for intersection).
    pub matches: u64,
}

// ---------------------------------------------------------------------------
// Two-input intersection.
// ---------------------------------------------------------------------------

/// Lazy two-input intersection over fiber cursors.
///
/// Yields `(coord, position in a, position in b)` one match at a time.
/// Comparisons accrue as the stream advances; [`Intersect2Stream::stats`]
/// is complete once the stream is drained.
#[derive(Clone, Debug)]
pub struct Intersect2Stream<'a> {
    a: FiberView<'a>,
    b: FiberView<'a>,
    i: usize,
    j: usize,
    policy: IntersectPolicy,
    stats: CoIterStats,
}

/// Starts a lazy intersection of two fiber cursors under `policy`.
///
/// Comparison charging per policy:
///
/// - two-finger: one comparison per pointer advance (≈ `|a| + |b|` worst
///   case, less when one side exhausts early),
/// - leader-follower: one probe per leader element,
/// - skip-ahead: galloping probes, `O(matches · log(skip))`.
pub fn intersect2_stream<'a>(
    a: FiberView<'a>,
    b: FiberView<'a>,
    policy: IntersectPolicy,
) -> Intersect2Stream<'a> {
    Intersect2Stream {
        a,
        b,
        i: 0,
        j: 0,
        policy,
        stats: CoIterStats::default(),
    }
}

impl Intersect2Stream<'_> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }
}

impl Iterator for Intersect2Stream<'_> {
    type Item = (Coord, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        match self.policy {
            IntersectPolicy::TwoFinger => self.next_two_finger(),
            IntersectPolicy::LeaderFollower { leader } => self.next_leader(leader == 1),
            IntersectPolicy::SkipAhead => self.next_skip_ahead(),
        }
    }
}

impl Intersect2Stream<'_> {
    fn next_two_finger(&mut self) -> Option<(Coord, usize, usize)> {
        while self.i < self.a.occupancy() && self.j < self.b.occupancy() {
            self.stats.comparisons += 1;
            let ka = self.a.coord_key_at(self.i);
            match ka.cmp_key(&self.b.coord_key_at(self.j)) {
                std::cmp::Ordering::Equal => {
                    let out = (ka.to_coord(), self.i, self.j);
                    self.stats.matches += 1;
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
            }
        }
        None
    }

    /// Leader-follower: the stream walks the leader (`a` unless `swap`)
    /// and probes the follower, charging one comparison per leader
    /// element. Output positions stay `(pos in a, pos in b)`.
    fn next_leader(&mut self, swap: bool) -> Option<(Coord, usize, usize)> {
        let (lead, follow) = if swap {
            (self.b, self.a)
        } else {
            (self.a, self.b)
        };
        while self.i < lead.occupancy() {
            self.stats.comparisons += 1;
            let key = lead.coord_key_at(self.i);
            let pl = self.i;
            self.i += 1;
            if let Some(pf) = follow.position_of_key(&key) {
                self.stats.matches += 1;
                let out = if swap { (pf, pl) } else { (pl, pf) };
                return Some((key.to_coord(), out.0, out.1));
            }
        }
        None
    }

    fn next_skip_ahead(&mut self) -> Option<(Coord, usize, usize)> {
        while self.i < self.a.occupancy() && self.j < self.b.occupancy() {
            self.stats.comparisons += 1;
            let ka = self.a.coord_key_at(self.i);
            let kb = self.b.coord_key_at(self.j);
            match ka.cmp_key(&kb) {
                std::cmp::Ordering::Equal => {
                    let out = (ka.to_coord(), self.i, self.j);
                    self.stats.matches += 1;
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
                std::cmp::Ordering::Less => {
                    let hint = skew_step(self.a.occupancy() - self.i, self.b.occupancy() - self.j);
                    let (ni, probes) = gallop(&self.a, self.i, &kb, hint);
                    self.stats.comparisons += probes;
                    self.i = ni;
                }
                std::cmp::Ordering::Greater => {
                    let hint = skew_step(self.b.occupancy() - self.j, self.a.occupancy() - self.i);
                    let (nj, probes) = gallop(&self.b, self.j, &ka, hint);
                    self.stats.comparisons += probes;
                    self.j = nj;
                }
            }
        }
        None
    }
}

/// The adaptive gallop seed: when the advancing side has `rem_self`
/// elements left against `rem_other` on the other side, the expected
/// skip distance is their ratio. Balanced inputs degrade to the classic
/// step of 1.
fn skew_step(rem_self: usize, rem_other: usize) -> usize {
    (rem_self / rem_other.max(1)).max(1)
}

/// Intersects two fibers eagerly, returning the positions of each match.
///
/// Each output tuple is `(coord, position in a, position in b)`. This is
/// [`intersect2_stream`] drained into a `Vec`.
pub fn intersect2(
    a: &Fiber,
    b: &Fiber,
    policy: IntersectPolicy,
) -> (Vec<(Coord, usize, usize)>, CoIterStats) {
    let mut s = intersect2_stream(FiberView::Owned(a), FiberView::Owned(b), policy);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

/// Gallops forward from `start` to the first position whose coordinate is
/// `>= target`, returning `(position, probes spent)`.
///
/// `first_step` seeds the exponential probe. A skip-ahead unit facing a
/// heavily skewed pair (a long fiber chasing a short one) expects jumps
/// around `|long| / |short|`, so seeding with that ratio reaches the
/// target in `O(log)` probes instead of warming up from 1 every time;
/// `first_step = 1` reproduces the classic gallop.
fn gallop(
    fiber: &FiberView<'_>,
    start: usize,
    target: &CoordKey<'_>,
    first_step: usize,
) -> (usize, u64) {
    let len = fiber.occupancy();
    let mut probes = 0u64;
    let mut step = first_step.max(1);
    let mut lo = start;
    let mut hi = start;
    // Exponential probe.
    while hi < len && fiber.coord_key_at(hi).cmp_key(target).is_lt() {
        probes += 1;
        lo = hi;
        hi = (hi + step).min(len);
        step *= 2;
    }
    // Binary search within (lo, hi].
    let mut left = lo;
    let mut right = hi;
    while left < right {
        probes += 1;
        let mid = (left + right) / 2;
        if fiber.coord_key_at(mid).cmp_key(target).is_lt() {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    (left, probes)
}

// ---------------------------------------------------------------------------
// Multi-input intersection: a lazy cascade of two-input stages.
// ---------------------------------------------------------------------------

/// Lazy multi-input intersection: yields, per matching coordinate, the
/// per-fiber positions.
///
/// Structured as a cascade of two-input stages — fiber 0 feeds stage 1,
/// whose output feeds stage 2, and so on — which is how multi-way
/// intersections are built from two-input units in hardware, and is also
/// exactly how comparisons are charged: each stage counts as if it merged
/// the *complete* output of the previous stage, so the totals equal the
/// eager pairwise composition even though nothing is materialized. (A
/// stage whose own fiber exhausts silently drains its upstream to keep
/// that equivalence.)
///
/// The stream fills one positions buffer in place: [`IntersectStream::advance`]
/// returns the matching coordinate and [`IntersectStream::positions`] holds
/// its position in every fiber. [`IntersectStream::restart`] re-arms the
/// same stream over new fibers, so a caller that keeps one stream per loop
/// level allocates only on first use. The [`Iterator`] impl materializes
/// each match for callers that want owned rows.
///
/// One or two compressed point fibers (see [`FiberView::point_run`]) in an
/// unbounded stream skip the cascade: the stream scans one raw run, or
/// merges (two-finger, skip-ahead) or probes (leader-follower) two, by
/// direct integer compares. That choice follows from the fibers' shape
/// alone, and positions, matches and comparisons equal the cascade's.
#[derive(Clone, Debug, Default)]
pub struct IntersectStream<'a> {
    /// What `advance` runs, chosen by `restart`.
    kernel: Kernel<'a>,
    /// Fiber 0 is the source; fiber `k` is merged by stage `k` (cascade
    /// only).
    fibers: Vec<FiberView<'a>>,
    /// `stages[k - 1]` is the two-input unit merging fiber `k` (cascade
    /// only).
    stages: Vec<ManyStage<'a>>,
    /// Positions of the current match, one per fiber. While stage `k`
    /// holds an upstream match, `positions[..k]` are that match's.
    positions: Vec<usize>,
    /// The source's next position (in a run kernel, the first run's).
    source_pos: usize,
    /// A run kernel's next position in the second run.
    follow_pos: usize,
    /// A run kernel's comparisons.
    run_comparisons: u64,
    /// Emission from the source stops (uncharged) at the first coordinate
    /// `>= Point(limit)` — the shard boundary of a bounded stream.
    limit: Option<u64>,
    /// Leader-follower mode: stages probe instead of merging.
    probe: bool,
    matches: u64,
}

/// The loop an [`IntersectStream`] runs.
#[derive(Clone, Copy, Debug, Default)]
enum Kernel<'a> {
    /// The cascade of two-input stages over fiber cursors: tuple levels,
    /// owned fibers, more than two fibers, and bounded (shard) streams.
    #[default]
    Cascade,
    /// One point run, scanned.
    Scan(PointRun<'a>),
    /// Two point runs, merged two-finger.
    Merge(PointRun<'a>, PointRun<'a>),
    /// The first point run probing the second by binary search.
    Probe(PointRun<'a>, PointRun<'a>),
}

#[derive(Clone, Copy, Debug, Default)]
struct ManyStage<'a> {
    j: usize,
    comparisons: u64,
    /// The upstream match this stage is comparing against.
    left: Option<CoordKey<'a>>,
    /// Whether `left` was emitted, so the upstream must advance before
    /// the next comparison. Advancing lazily keeps the upstream from
    /// overwriting the emitted match's positions while the caller reads
    /// them.
    emitted: bool,
    primed: bool,
    done: bool,
}

impl<'a> IntersectStream<'a> {
    /// Re-arms the stream over `fibers` under `policy`, reusing its
    /// buffers. With `bounds = Some((lo, hi))` the stream emits only
    /// matches whose coordinate lies in `[lo, hi)`, with the shard-exact
    /// charging of [`intersect_stream_bounded`].
    ///
    /// # Panics
    ///
    /// Panics when `fibers` is empty, or when bounded with more than two
    /// fibers (see [`intersect_stream_bounded`]).
    pub fn restart(
        &mut self,
        fibers: &[FiberView<'a>],
        policy: IntersectPolicy,
        bounds: Option<(u64, u64)>,
    ) {
        assert!(
            !fibers.is_empty(),
            "intersect_stream needs at least one fiber"
        );
        self.positions.clear();
        self.positions.resize(fibers.len(), 0);
        self.probe = matches!(policy, IntersectPolicy::LeaderFollower { .. });
        self.matches = 0;
        self.source_pos = 0;
        self.follow_pos = 0;
        self.run_comparisons = 0;
        self.limit = None;
        self.stages.clear();
        self.kernel = match (fibers, bounds) {
            ([a], None) => a.point_run().map_or(Kernel::Cascade, Kernel::Scan),
            ([a, b], None) => match (a.point_run(), b.point_run()) {
                (Some(ra), Some(rb)) if self.probe => Kernel::Probe(ra, rb),
                (Some(ra), Some(rb)) => Kernel::Merge(ra, rb),
                _ => Kernel::Cascade,
            },
            _ => Kernel::Cascade,
        };
        if !matches!(self.kernel, Kernel::Cascade) {
            return;
        }
        self.fibers.clear();
        self.fibers.extend_from_slice(fibers);
        self.stages.resize(fibers.len() - 1, ManyStage::default());
        if let Some((lo, hi)) = bounds {
            assert!(
                fibers.len() <= 2,
                "bounded intersection is shard-exact for one or two fibers only"
            );
            let start = lower_bound_point(&fibers[0], lo);
            self.source_pos = start;
            self.limit = Some(hi);
            if let Some(f) = fibers.get(1) {
                // Where the sequential two-finger merge leaves the
                // follower after consuming every leader element below
                // `lo`: one past the last follower coordinate `<=` the
                // previous leader coordinate.
                if start > 0 {
                    let prev = fibers[0]
                        .coord_key_at(start - 1)
                        .as_point()
                        .expect("bounded intersection requires point coordinates");
                    self.stages[0].j = lower_bound_point(f, prev.saturating_add(1));
                }
            }
        }
    }

    /// Advances to the next match and returns its coordinate; its
    /// per-fiber positions are then in [`IntersectStream::positions`].
    pub fn advance(&mut self) -> Option<CoordKey<'a>> {
        let key = match self.kernel {
            Kernel::Cascade => {
                let top = self.fibers.len().checked_sub(1)?;
                self.pull(top)?
            }
            Kernel::Scan(run) => {
                let i = self.source_pos;
                if i >= run.len() {
                    return None;
                }
                self.positions[0] = i;
                self.source_pos = i + 1;
                CoordKey::Point(run.get(i))
            }
            Kernel::Merge(a, b) => CoordKey::Point(match (a, b) {
                (PointRun::U32(a), PointRun::U32(b)) => self.merge_runs(a, b),
                (PointRun::U32(a), PointRun::U64(b)) => self.merge_runs(a, b),
                (PointRun::U64(a), PointRun::U32(b)) => self.merge_runs(a, b),
                (PointRun::U64(a), PointRun::U64(b)) => self.merge_runs(a, b),
            }?),
            Kernel::Probe(a, b) => CoordKey::Point(match (a, b) {
                (PointRun::U32(a), PointRun::U32(b)) => self.probe_runs(a, b),
                (PointRun::U32(a), PointRun::U64(b)) => self.probe_runs(a, b),
                (PointRun::U64(a), PointRun::U32(b)) => self.probe_runs(a, b),
                (PointRun::U64(a), PointRun::U64(b)) => self.probe_runs(a, b),
            }?),
        };
        self.matches += 1;
        Some(key)
    }

    /// The two-finger merge of two runs: one comparison per step, the
    /// smaller side advancing. What the cascade's single stage does, with
    /// the source as `a`.
    #[inline]
    fn merge_runs<A, B>(&mut self, a: &[A], b: &[B]) -> Option<u64>
    where
        A: Copy + Into<u64>,
        B: Copy + Into<u64>,
    {
        let (mut i, mut j) = (self.source_pos, self.follow_pos);
        let mut comparisons = 0u64;
        let mut hit = None;
        while i < a.len() && j < b.len() {
            comparisons += 1;
            let (x, y): (u64, u64) = (a[i].into(), b[j].into());
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.positions[0] = i;
                    self.positions[1] = j;
                    hit = Some(x);
                    i += 1;
                    j += 1;
                    break;
                }
            }
        }
        self.source_pos = i;
        self.follow_pos = j;
        self.run_comparisons += comparisons;
        hit
    }

    /// Leader-follower over two runs: every element of `a` costs one
    /// probe, a binary search of all of `b`.
    #[inline]
    fn probe_runs<A, B>(&mut self, a: &[A], b: &[B]) -> Option<u64>
    where
        A: Copy + Into<u64>,
        B: Copy + Into<u64>,
    {
        while self.source_pos < a.len() {
            let i = self.source_pos;
            self.source_pos += 1;
            self.run_comparisons += 1;
            let x: u64 = a[i].into();
            if let Ok(j) = b.binary_search_by(|&y| y.into().cmp(&x)) {
                self.positions[0] = i;
                self.positions[1] = j;
                return Some(x);
            }
        }
        None
    }

    /// Per-fiber positions of the match [`IntersectStream::advance`] last
    /// returned.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        CoIterStats {
            comparisons: self.run_comparisons
                + self.stages.iter().map(|s| s.comparisons).sum::<u64>(),
            matches: self.matches,
        }
    }

    /// The next output of cascade node `k`: the source for `k = 0`, stage
    /// `k` otherwise. Writes `positions[..=k]`.
    fn pull(&mut self, k: usize) -> Option<CoordKey<'a>> {
        if k == 0 {
            let fiber = self.fibers[0];
            if self.source_pos >= fiber.occupancy() {
                return None;
            }
            let key = fiber.coord_key_at(self.source_pos);
            if let Some(h) = self.limit {
                if !key.cmp_key(&CoordKey::Point(h)).is_lt() {
                    return None;
                }
            }
            self.positions[0] = self.source_pos;
            self.source_pos += 1;
            return Some(key);
        }
        let s = k - 1;
        if self.stages[s].done {
            return None;
        }
        if !self.stages[s].primed || self.stages[s].emitted {
            self.stages[s].left = self.pull(k - 1);
            self.stages[s].primed = true;
            self.stages[s].emitted = false;
        }
        let fiber = self.fibers[k];
        if self.probe {
            // Leader-follower: every upstream match costs one probe of
            // this fiber, whether or not it hits.
            while let Some(c) = self.stages[s].left {
                self.stages[s].comparisons += 1;
                if let Some(pf) = fiber.position_of_key(&c) {
                    self.positions[k] = pf;
                    self.stages[s].emitted = true;
                    return Some(c);
                }
                self.stages[s].left = self.pull(k - 1);
            }
            self.stages[s].done = true;
            return None;
        }
        // Two-finger merge of the upstream stream against this fiber.
        loop {
            let Some(c) = self.stages[s].left else {
                // Upstream exhausted (and, by induction, fully drained).
                self.stages[s].done = true;
                return None;
            };
            let j = self.stages[s].j;
            if j >= fiber.occupancy() {
                // This fiber exhausted: the eager pairwise composition
                // still materializes the full upstream match list, so
                // drain it (charging its comparisons) without emitting.
                while self.pull(k - 1).is_some() {}
                self.stages[s].left = None;
                self.stages[s].done = true;
                return None;
            }
            self.stages[s].comparisons += 1;
            match c.cmp_key(&fiber.coord_key_at(j)) {
                std::cmp::Ordering::Equal => {
                    self.positions[k] = j;
                    self.stages[s].j = j + 1;
                    self.stages[s].emitted = true;
                    return Some(c);
                }
                std::cmp::Ordering::Less => self.stages[s].left = self.pull(k - 1),
                std::cmp::Ordering::Greater => self.stages[s].j = j + 1,
            }
        }
    }
}

/// Starts a lazy multi-input intersection of `fibers` under `policy`.
///
/// # Panics
///
/// Panics when `fibers` is empty.
pub fn intersect_stream<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
) -> IntersectStream<'a> {
    let mut s = IntersectStream::default();
    s.restart(fibers, policy, None);
    s
}

/// Binary search for the first position in `fiber` whose coordinate is
/// `>= Point(c)` (the whole fiber must hold point coordinates).
fn lower_bound_point(fiber: &FiberView<'_>, c: u64) -> usize {
    let target = CoordKey::Point(c);
    let (mut lo, mut hi) = (0usize, fiber.occupancy());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fiber.coord_key_at(mid).cmp_key(&target).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Starts a *bounded* lazy intersection emitting only matches whose
/// coordinate lies in `[lo, hi)` — one shard of a partitioned
/// co-iteration.
///
/// Positions stay absolute (identical to the unbounded stream), and the
/// comparison charging is **shard-exact**: running the same intersection
/// over a partition of `[0, ∞)` into consecutive `[lo, hi)` windows and
/// summing the per-shard [`CoIterStats`] reproduces the unbounded totals
/// bit for bit. That holds because the leader starts at the first
/// coordinate `>= lo` and stops uncharged at the first `>= hi`, while the
/// follower cursor is pre-positioned exactly where the sequential merge
/// would have left it after consuming every leader element below `lo`.
///
/// Fibers must hold point coordinates.
///
/// # Panics
///
/// Panics unless `fibers` holds one or two fibers: deeper cascades drain
/// exhausted stages past the window boundary, which would break the
/// charge-partition guarantee.
pub fn intersect_stream_bounded<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
    lo: u64,
    hi: u64,
) -> IntersectStream<'a> {
    let mut s = IntersectStream::default();
    s.restart(fibers, policy, Some((lo, hi)));
    s
}

impl Iterator for IntersectStream<'_> {
    type Item = (Coord, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.advance()?;
        Some((key.to_coord(), self.positions.clone()))
    }
}

/// Intersects any number of fibers eagerly, returning for each matching
/// coordinate the per-fiber positions. This is [`intersect_stream`]
/// drained into a `Vec`.
///
/// # Panics
///
/// Panics when `fibers` is empty.
pub fn intersect_many(
    fibers: &[&Fiber],
    policy: IntersectPolicy,
) -> (Vec<(Coord, Vec<usize>)>, CoIterStats) {
    let views: Vec<FiberView<'_>> = fibers.iter().map(|f| FiberView::Owned(f)).collect();
    let mut s = intersect_stream(&views, policy);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

// ---------------------------------------------------------------------------
// Union.
// ---------------------------------------------------------------------------

/// One union result row: a coordinate plus, per input fiber, the position
/// of that coordinate when the fiber holds it.
pub type UnionMatch = (Coord, Vec<Option<usize>>);

/// Lazy multi-input union over fiber cursors: yields every coordinate
/// present in at least one fiber, with the per-fiber position when
/// present. One comparison is charged per live fiber per emitted
/// coordinate (the min-finding work of the merging sequencer).
///
/// Like [`IntersectStream`], it fills one positions buffer in place
/// ([`UnionStream::advance`], [`UnionStream::positions`]) and can be
/// re-armed with [`UnionStream::restart`] without allocating.
#[derive(Clone, Debug, Default)]
pub struct UnionStream<'a> {
    fibers: Vec<FiberView<'a>>,
    cursors: Vec<usize>,
    positions: Vec<Option<usize>>,
    stats: CoIterStats,
    limit: Option<u64>,
}

/// Starts a lazy union of `fibers`.
pub fn union_stream<'a>(fibers: &[FiberView<'a>]) -> UnionStream<'a> {
    let mut s = UnionStream::default();
    s.restart(fibers, None);
    s
}

/// Starts a *bounded* lazy union emitting only coordinates in `[lo, hi)`
/// — one shard of a partitioned co-iteration. Positions stay absolute,
/// and charging is **shard-exact** for any number of fibers: each
/// cursor starts at its fiber's first coordinate `>= lo`, and the
/// min-scan that would emit a coordinate `>= hi` charges nothing (the
/// next shard performs — and pays for — that scan itself). Fibers must
/// hold point coordinates.
pub fn union_stream_bounded<'a>(fibers: &[FiberView<'a>], lo: u64, hi: u64) -> UnionStream<'a> {
    let mut s = UnionStream::default();
    s.restart(fibers, Some((lo, hi)));
    s
}

impl<'a> UnionStream<'a> {
    /// Re-arms the stream over `fibers`, reusing its buffers; `bounds`
    /// as in [`union_stream_bounded`].
    pub fn restart(&mut self, fibers: &[FiberView<'a>], bounds: Option<(u64, u64)>) {
        self.fibers.clear();
        self.fibers.extend_from_slice(fibers);
        self.cursors.clear();
        match bounds {
            Some((lo, _)) => self
                .cursors
                .extend(fibers.iter().map(|f| lower_bound_point(f, lo))),
            None => self.cursors.resize(fibers.len(), 0),
        }
        self.positions.clear();
        self.positions.resize(fibers.len(), None);
        self.stats = CoIterStats::default();
        self.limit = bounds.map(|(_, hi)| hi);
    }

    /// Advances to the next coordinate and returns it; the per-fiber
    /// positions are then in [`UnionStream::positions`].
    pub fn advance(&mut self) -> Option<CoordKey<'a>> {
        // Find the minimum current coordinate across all fibers. Scan
        // charges are tallied locally and only committed on emission:
        // a bounded stream's final scan — the one that discovers the
        // boundary coordinate — is performed again (and paid for) by
        // the shard that owns that coordinate, so per-shard stats sum
        // exactly to the sequential stream's.
        let mut min: Option<CoordKey<'a>> = None;
        let mut scanned = 0u64;
        for (f, &cur) in self.fibers.iter().zip(&self.cursors) {
            if cur < f.occupancy() {
                scanned += 1;
                let key = f.coord_key_at(cur);
                match &min {
                    None => min = Some(key),
                    Some(m) if key.cmp_key(m).is_lt() => min = Some(key),
                    _ => {}
                }
            }
        }
        let min = min?;
        if let Some(h) = self.limit {
            if !min.cmp_key(&CoordKey::Point(h)).is_lt() {
                return None;
            }
        }
        self.stats.comparisons += scanned;
        for ((f, cur), pos) in self
            .fibers
            .iter()
            .zip(&mut self.cursors)
            .zip(&mut self.positions)
        {
            if *cur < f.occupancy() && f.coord_key_at(*cur).cmp_key(&min).is_eq() {
                *pos = Some(*cur);
                *cur += 1;
            } else {
                *pos = None;
            }
        }
        self.stats.matches += 1;
        Some(min)
    }

    /// Per-fiber positions of the coordinate [`UnionStream::advance`]
    /// last returned (`None` where the fiber lacks it).
    pub fn positions(&self) -> &[Option<usize>] {
        &self.positions
    }

    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }
}

impl Iterator for UnionStream<'_> {
    type Item = UnionMatch;

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.advance()?;
        Some((key.to_coord(), self.positions.clone()))
    }
}

/// Unions any number of fibers eagerly. This is [`union_stream`] drained
/// into a `Vec`.
pub fn union_many(fibers: &[&Fiber]) -> (Vec<UnionMatch>, CoIterStats) {
    let views: Vec<FiberView<'_>> = fibers.iter().map(|f| FiberView::Owned(f)).collect();
    let mut s = union_stream(&views);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

// ---------------------------------------------------------------------------
// Projection.
// ---------------------------------------------------------------------------

/// Looks up a coordinate in a fiber by *projection*: used when a loop rank
/// covers several root ranks (after flattening) but a tensor only carries a
/// subset of them, so the relevant tuple component is extracted and probed.
pub fn project_lookup<'f>(
    fiber: &FiberView<'f>,
    coord: &Coord,
    component: usize,
) -> Option<PayloadView<'f>> {
    let c = match coord {
        Coord::Point(_) => {
            debug_assert_eq!(component, 0, "points have a single component");
            coord.clone()
        }
        Coord::Tuple(cs) => cs.get(component)?.clone(),
    };
    fiber.get(&c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedTensor;
    use crate::coord::Shape;
    use crate::view::TensorData;

    fn fib(coords: &[u64]) -> Fiber {
        Fiber::from_pairs(
            Shape::Interval(1000),
            coords.iter().map(|&c| (c, c as f64 + 1.0)),
        )
        .expect("test fiber is valid")
    }

    fn compressed(coords: &[u64]) -> CompressedTensor {
        CompressedTensor::from_entries(
            "F",
            &["K"],
            &[1000],
            coords.iter().map(|&c| (vec![c], c as f64 + 1.0)).collect(),
        )
        .expect("test fiber is valid")
    }

    #[test]
    fn two_finger_finds_all_matches() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[2, 3, 7, 9]);
        let (m, s) = intersect2(&a, &b, IntersectPolicy::TwoFinger);
        let coords: Vec<u64> = m.iter().map(|(c, _, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![3, 7]);
        assert_eq!(s.matches, 2);
        assert!(s.comparisons >= 2 && s.comparisons <= 8);
    }

    #[test]
    fn all_policies_agree_on_matches() {
        let a = fib(&[0, 2, 4, 6, 8, 10, 50, 51, 52]);
        let b = fib(&[4, 5, 6, 52, 99]);
        let (m0, _) = intersect2(&a, &b, IntersectPolicy::TwoFinger);
        let (m1, _) = intersect2(&a, &b, IntersectPolicy::LeaderFollower { leader: 0 });
        let (m2, _) = intersect2(&a, &b, IntersectPolicy::LeaderFollower { leader: 1 });
        let (m3, _) = intersect2(&a, &b, IntersectPolicy::SkipAhead);
        assert_eq!(m0, m1);
        assert_eq!(m0, m2);
        assert_eq!(m0, m3);
    }

    #[test]
    fn leader_follower_work_tracks_leader_occupancy() {
        let small = fib(&[100, 200]);
        let big = fib(&(0..500).collect::<Vec<u64>>());
        let (_, s) = intersect2(&small, &big, IntersectPolicy::LeaderFollower { leader: 0 });
        assert_eq!(s.comparisons, 2);
        let (_, s) = intersect2(&small, &big, IntersectPolicy::LeaderFollower { leader: 1 });
        assert_eq!(s.comparisons, 500);
    }

    #[test]
    fn skip_ahead_beats_two_finger_on_skewed_inputs() {
        let sparse = fib(&[999]);
        let dense = fib(&(0..1000).collect::<Vec<u64>>());
        let (_, tf) = intersect2(&sparse, &dense, IntersectPolicy::TwoFinger);
        let (_, sa) = intersect2(&sparse, &dense, IntersectPolicy::SkipAhead);
        assert!(
            sa.comparisons < tf.comparisons / 10,
            "skip-ahead {} should be far below two-finger {}",
            sa.comparisons,
            tf.comparisons
        );
    }

    #[test]
    fn intersect_many_matches_pairwise_composition() {
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[2, 4, 6]);
        let c = fib(&[4, 5, 6]);
        let (m, _) = intersect_many(&[&a, &b, &c], IntersectPolicy::TwoFinger);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, Coord::Point(4));
        assert_eq!(m[0].1, vec![3, 1, 0]);
    }

    #[test]
    fn streams_are_lazy_but_stats_complete_on_drain() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[3, 7]);
        let mut s = intersect2_stream(
            FiberView::Owned(&a),
            FiberView::Owned(&b),
            IntersectPolicy::TwoFinger,
        );
        let first = s.next().unwrap();
        assert_eq!(first.0, Coord::Point(3));
        let partial = s.stats();
        assert_eq!(partial.matches, 1);
        let rest: Vec<_> = s.by_ref().collect();
        assert_eq!(rest.len(), 1);
        assert!(s.stats().comparisons > partial.comparisons);
    }

    #[test]
    fn streams_agree_across_representations() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99];
        let (oa, ob) = (fib(&coords_a), fib(&coords_b));
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        for policy in [
            IntersectPolicy::TwoFinger,
            IntersectPolicy::LeaderFollower { leader: 0 },
            IntersectPolicy::LeaderFollower { leader: 1 },
            IntersectPolicy::SkipAhead,
        ] {
            let (mo, so) = intersect2(&oa, &ob, policy);
            let mut s = intersect2_stream(
                da.root_fiber_view().unwrap(),
                db.root_fiber_view().unwrap(),
                policy,
            );
            let mc: Vec<_> = s.by_ref().collect();
            assert_eq!(mo, mc, "{policy:?}");
            assert_eq!(so, s.stats(), "{policy:?}");
        }
        let (uo, suo) = union_many(&[&oa, &ob]);
        let mut us = union_stream(&[da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap()]);
        let uc: Vec<_> = us.by_ref().collect();
        assert_eq!(uo, uc);
        assert_eq!(suo, us.stats());
    }

    #[test]
    fn cascade_drains_upstream_when_a_stage_exhausts() {
        // b exhausts immediately, but the a→b stage must still charge the
        // comparisons the eager composition would (full |a| materialized,
        // then the a∩b merge, then nothing at the c stage).
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[1]);
        let c = fib(&[9]);
        let (me, se) = intersect_many(&[&a, &b, &c], IntersectPolicy::TwoFinger);
        assert!(me.is_empty());
        let views = [&a, &b, &c].map(FiberView::Owned);
        let mut s = intersect_stream(&views, IntersectPolicy::TwoFinger);
        assert!(s.by_ref().next().is_none());
        assert_eq!(s.stats(), se);
    }

    #[test]
    fn union_yields_every_coordinate_once() {
        let a = fib(&[1, 3]);
        let b = fib(&[2, 3, 5]);
        let (u, s) = union_many(&[&a, &b]);
        let coords: Vec<u64> = u.iter().map(|(c, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![1, 2, 3, 5]);
        assert_eq!(u[2].1, vec![Some(1), Some(1)]);
        assert_eq!(u[0].1, vec![Some(0), None]);
        assert_eq!(s.matches, 4);
    }

    #[test]
    fn union_of_empty_fibers_is_empty() {
        let a = Fiber::new(Shape::Interval(5));
        let b = Fiber::new(Shape::Interval(5));
        let (u, _) = union_many(&[&a, &b]);
        assert!(u.is_empty());
    }

    /// Shard-exactness: for every split of the coordinate space into
    /// `[0,b)` and `[b,1000)`, the bounded streams' emissions concatenate
    /// to the unbounded stream's and their stats sum to its stats exactly.
    #[test]
    fn bounded_intersect_shards_partition_sequential_exactly() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52, 400, 401, 700];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99, 400, 700, 999];
        // Both representations: the engine shards owned and compressed
        // inputs alike, and their coordinate keys differ (Borrowed vs
        // inline Point).
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (fa, fb) = (fib(&coords_a), fib(&coords_b));
        let view_sets: [[FiberView<'_>; 2]; 2] = [
            [da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap()],
            [FiberView::Owned(&fa), FiberView::Owned(&fb)],
        ];
        for pair in &view_sets {
            for policy in [
                IntersectPolicy::TwoFinger,
                IntersectPolicy::LeaderFollower { leader: 0 },
                IntersectPolicy::LeaderFollower { leader: 1 },
                IntersectPolicy::SkipAhead,
            ] {
                for nf in [1usize, 2] {
                    let views: Vec<FiberView<'_>> = pair[..nf].to_vec();
                    let mut whole = intersect_stream(&views, policy);
                    let seq: Vec<_> = whole.by_ref().collect();
                    let seq_stats = whole.stats();
                    for split in [0u64, 1, 5, 52, 53, 399, 500, 999, 1000] {
                        let mut merged = Vec::new();
                        let mut comparisons = 0;
                        let mut matches = 0;
                        for (lo, hi) in [(0, split), (split, 1000)] {
                            let mut s = intersect_stream_bounded(&views, policy, lo, hi);
                            merged.extend(s.by_ref());
                            comparisons += s.stats().comparisons;
                            matches += s.stats().matches;
                        }
                        assert_eq!(seq, merged, "{policy:?} nf={nf} split={split}");
                        assert_eq!(
                            (seq_stats.comparisons, seq_stats.matches),
                            (comparisons, matches),
                            "{policy:?} nf={nf} split={split}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_union_shards_partition_sequential_exactly() {
        let coords_a: Vec<u64> = vec![1, 3, 40, 41, 800];
        let coords_b: Vec<u64> = vec![2, 3, 5, 41, 999];
        let coords_c: Vec<u64> = vec![0, 40, 900, 999];
        let tensors: Vec<TensorData> = [&coords_a, &coords_b, &coords_c]
            .iter()
            .map(|c| TensorData::Compressed(compressed(c)))
            .collect();
        let fibers: Vec<Fiber> = [&coords_a, &coords_b, &coords_c]
            .iter()
            .map(|c| fib(c))
            .collect();
        let view_sets: [Vec<FiberView<'_>>; 2] = [
            tensors
                .iter()
                .map(|t| t.root_fiber_view().unwrap())
                .collect(),
            fibers.iter().map(FiberView::Owned).collect(),
        ];
        for views in &view_sets {
            let mut whole = union_stream(views);
            let seq: Vec<_> = whole.by_ref().collect();
            let seq_stats = whole.stats();
            for splits in [vec![500], vec![0, 41], vec![3, 40, 900], vec![1000]] {
                let mut bounds = vec![0u64];
                bounds.extend(&splits);
                bounds.push(1000);
                let mut merged = Vec::new();
                let mut comparisons = 0;
                let mut matches = 0;
                for w in bounds.windows(2) {
                    let mut s = union_stream_bounded(views, w[0], w[1]);
                    merged.extend(s.by_ref());
                    comparisons += s.stats().comparisons;
                    matches += s.stats().matches;
                }
                assert_eq!(seq, merged, "splits={splits:?}");
                assert_eq!(
                    (seq_stats.comparisons, seq_stats.matches),
                    (comparisons, matches),
                    "splits={splits:?}"
                );
            }
        }
    }

    #[test]
    fn project_lookup_extracts_tuple_components() {
        let f = fib(&[7]);
        let v = FiberView::Owned(&f);
        let tuple = Coord::pair(7, 3);
        assert!(project_lookup(&v, &tuple, 0).is_some());
        assert!(project_lookup(&v, &tuple, 1).is_none());
        assert!(project_lookup(&v, &Coord::Point(7), 0).is_some());
    }
}
