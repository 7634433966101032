//! Co-iteration over fibers: streaming intersection and union.
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
//! compressed-fiber [`FiberView`] cursors that emit one match at a time,
//! never materializing a match list; the simulator's engine consumes
//! them directly, and collecting one into a `Vec` is the eager form. An
//! [`IntersectStream`] over one or two point fibers reads their
//! coordinate arrays as raw runs ([`crate::PointRun`]), as SAM's scanners
//! and intersecters do, with the cascade's exact charging.

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::view::{CoordKey, FiberView, PointRun};

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
    ///
    /// Only the two-input unit ([`intersect2_stream`]) gallops. The
    /// engine's [`IntersectStream`] charges skip-ahead as a two-finger
    /// merge: its `restart` probes only under leader-follower. The
    /// analytical estimator (`teaal_sim::estimate`) charges a gallop,
    /// `cmin · (1 + log2(1 + cmax / cmin))` per fiber pair, so ExTensor's
    /// estimated and measured intersection counts disagree by
    /// construction.
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
/// One or two point fibers (see [`FiberView::point_run`]) in an
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
    /// more than two fibers, and bounded (shard) streams.
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

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::compressed::CompressedTensor;

    const POLICIES: [IntersectPolicy; 4] = [
        IntersectPolicy::TwoFinger,
        IntersectPolicy::LeaderFollower { leader: 0 },
        IntersectPolicy::LeaderFollower { leader: 1 },
        IntersectPolicy::SkipAhead,
    ];

    fn fiber(coords: &[u64]) -> CompressedTensor {
        CompressedTensor::from_entries(
            "F",
            &["K"],
            &[1000],
            coords.iter().map(|&c| (vec![c], c as f64 + 1.0)).collect(),
        )
        .expect("test fiber is valid")
    }

    fn view(t: &CompressedTensor) -> FiberView<'_> {
        t.root_fiber_view().expect("1-tensor")
    }

    /// Each fiber's coordinates mapped to their positions.
    fn positions(fibers: &[&[u64]]) -> Vec<BTreeMap<u64, usize>> {
        fibers
            .iter()
            .map(|f| f.iter().enumerate().map(|(i, &c)| (c, i)).collect())
            .collect()
    }

    /// The intersection oracle: every coordinate all fibers hold, with its
    /// position in each.
    fn oracle_intersection(fibers: &[&[u64]]) -> Vec<(Coord, Vec<usize>)> {
        let pos = positions(fibers);
        pos[0]
            .keys()
            .filter(|c| pos.iter().all(|m| m.contains_key(c)))
            .map(|c| (Coord::Point(*c), pos.iter().map(|m| m[c]).collect()))
            .collect()
    }

    /// The union oracle: every coordinate any fiber holds, with its
    /// position where present.
    fn oracle_union(fibers: &[&[u64]]) -> Vec<UnionMatch> {
        let pos = positions(fibers);
        let all: BTreeSet<u64> = pos.iter().flat_map(|m| m.keys().copied()).collect();
        all.into_iter()
            .map(|c| {
                (
                    Coord::Point(c),
                    pos.iter().map(|m| m.get(&c).copied()).collect(),
                )
            })
            .collect()
    }

    fn drain2(
        a: &[u64],
        b: &[u64],
        policy: IntersectPolicy,
    ) -> (Vec<(Coord, usize, usize)>, CoIterStats) {
        let (ta, tb) = (fiber(a), fiber(b));
        let mut s = intersect2_stream(view(&ta), view(&tb), policy);
        let rows: Vec<_> = s.by_ref().collect();
        (rows, s.stats())
    }

    #[test]
    fn two_finger_finds_all_matches() {
        let (m, s) = drain2(&[1, 3, 5, 7], &[2, 3, 7, 9], IntersectPolicy::TwoFinger);
        let coords: Vec<u64> = m.iter().map(|(c, _, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![3, 7]);
        assert_eq!(s.matches, 2);
        assert!(s.comparisons >= 2 && s.comparisons <= 8);
    }

    #[test]
    fn all_policies_agree_on_matches() {
        let a: &[u64] = &[0, 2, 4, 6, 8, 10, 50, 51, 52];
        let b: &[u64] = &[4, 5, 6, 52, 99];
        let want = oracle_intersection(&[a, b]);
        let (ta, tb) = (fiber(a), fiber(b));
        for policy in POLICIES {
            let (rows, stats) = drain2(a, b, policy);
            let rows: Vec<_> = rows.into_iter().map(|(c, i, j)| (c, vec![i, j])).collect();
            assert_eq!(rows, want, "{policy:?}");
            assert_eq!(stats.matches, want.len() as u64, "{policy:?}");
            let cascade: Vec<_> = intersect_stream(&[view(&ta), view(&tb)], policy).collect();
            assert_eq!(cascade, want, "{policy:?}");
        }
    }

    #[test]
    fn leader_follower_work_tracks_leader_occupancy() {
        let big: Vec<u64> = (0..500).collect();
        let lead_small = IntersectPolicy::LeaderFollower { leader: 0 };
        let (_, s) = drain2(&[100, 200], &big, lead_small);
        assert_eq!(s.comparisons, 2);
        let lead_big = IntersectPolicy::LeaderFollower { leader: 1 };
        let (_, s) = drain2(&[100, 200], &big, lead_big);
        assert_eq!(s.comparisons, 500);
    }

    #[test]
    fn skip_ahead_beats_two_finger_on_skewed_inputs() {
        let dense: Vec<u64> = (0..1000).collect();
        let (_, tf) = drain2(&[999], &dense, IntersectPolicy::TwoFinger);
        let (_, sa) = drain2(&[999], &dense, IntersectPolicy::SkipAhead);
        assert!(
            sa.comparisons < tf.comparisons / 10,
            "skip-ahead {} should be far below two-finger {}",
            sa.comparisons,
            tf.comparisons
        );
    }

    #[test]
    fn intersect_many_matches_pairwise_composition() {
        let fibers: [&[u64]; 3] = [&[1, 2, 3, 4, 5], &[2, 4, 6], &[4, 5, 6]];
        let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let rows: Vec<_> = intersect_stream(&views, IntersectPolicy::TwoFinger).collect();
        assert_eq!(rows, oracle_intersection(&fibers));
        assert_eq!(rows, vec![(Coord::Point(4), vec![3, 1, 0])]);
    }

    #[test]
    fn streams_are_lazy_but_stats_complete_on_drain() {
        let (ta, tb) = (fiber(&[1, 3, 5, 7]), fiber(&[3, 7]));
        let mut s = intersect2_stream(view(&ta), view(&tb), IntersectPolicy::TwoFinger);
        let first = s.next().unwrap();
        assert_eq!(first.0, Coord::Point(3));
        let partial = s.stats();
        assert_eq!(partial.matches, 1);
        let rest: Vec<_> = s.by_ref().collect();
        assert_eq!(rest.len(), 1);
        assert!(s.stats().comparisons > partial.comparisons);
    }

    /// The cascade charges what the eager pairwise composition would:
    /// each stage merges the complete output of the stage above it, even
    /// when its own fiber exhausts first.
    #[test]
    fn cascade_drains_upstream_when_a_stage_exhausts() {
        // (fibers, comparisons of `a ∩ b` then of `(a ∩ b) ∩ c`, matches)
        let cases: [([&[u64]; 3], u64, u64); 2] = [
            // b exhausts at once: 1 + 1 comparisons, no match.
            ([&[1, 2, 3, 4, 5], &[1], &[9]], 2, 0),
            // c exhausts after its match; stage 1 still merges all of
            // a and b: 5 + 1 comparisons.
            ([&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5], &[1]], 6, 1),
        ];
        for (fibers, comparisons, matches) in cases {
            let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
            let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
            let mut s = intersect_stream(&views, IntersectPolicy::TwoFinger);
            let rows: Vec<_> = s.by_ref().collect();
            assert_eq!(rows, oracle_intersection(&fibers));
            assert_eq!(
                s.stats(),
                CoIterStats {
                    comparisons,
                    matches
                }
            );
        }
    }

    #[test]
    fn union_yields_every_coordinate_once() {
        let fibers: [&[u64]; 2] = [&[1, 3], &[2, 3, 5]];
        let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let mut s = union_stream(&views);
        let rows: Vec<_> = s.by_ref().collect();
        assert_eq!(rows, oracle_union(&fibers));
        assert_eq!(rows[2].1, vec![Some(1), Some(1)]);
        assert_eq!(rows[0].1, vec![Some(0), None]);
        assert_eq!(s.stats().matches, 4);
    }

    /// The two-input unit and the cascade stream find the same matches
    /// under every policy, and charge alike where they model the same
    /// unit (the cascade merges under skip-ahead, and its source always
    /// leads).
    #[test]
    fn streams_agree_across_representations() {
        let a: &[u64] = &[0, 2, 4, 6, 8, 10, 50, 51, 52];
        let b: &[u64] = &[4, 5, 6, 52, 99];
        let (ta, tb) = (fiber(a), fiber(b));
        for policy in POLICIES {
            let (rows, stats) = drain2(a, b, policy);
            let mut s = intersect_stream(&[view(&ta), view(&tb)], policy);
            let cascade: Vec<_> = s.by_ref().collect();
            let rows: Vec<_> = rows.into_iter().map(|(c, i, j)| (c, vec![i, j])).collect();
            assert_eq!(rows, cascade, "{policy:?}");
            if matches!(
                policy,
                IntersectPolicy::TwoFinger | IntersectPolicy::LeaderFollower { leader: 0 }
            ) {
                assert_eq!(stats, s.stats(), "{policy:?}");
            }
        }
    }

    #[test]
    fn union_of_empty_fibers_is_empty() {
        let (a, b) = (fiber(&[]), fiber(&[]));
        assert!(union_stream(&[view(&a), view(&b)]).next().is_none());
    }

    /// Shard-exactness: for every split of the coordinate space into
    /// `[0,b)` and `[b,1000)`, the bounded streams' emissions concatenate
    /// to the unbounded stream's and their stats sum to its stats exactly.
    #[test]
    fn bounded_intersect_shards_partition_sequential_exactly() {
        let (ta, tb) = (
            fiber(&[0, 2, 4, 6, 8, 10, 50, 51, 52, 400, 401, 700]),
            fiber(&[4, 5, 6, 52, 99, 400, 700, 999]),
        );
        let pair = [view(&ta), view(&tb)];
        for policy in POLICIES {
            for nf in [1usize, 2] {
                let views = &pair[..nf];
                let mut whole = intersect_stream(views, policy);
                let seq: Vec<_> = whole.by_ref().collect();
                let seq_stats = whole.stats();
                for split in [0u64, 1, 5, 52, 53, 399, 500, 999, 1000] {
                    let mut merged = Vec::new();
                    let mut comparisons = 0;
                    let mut matches = 0;
                    for (lo, hi) in [(0, split), (split, 1000)] {
                        let mut s = intersect_stream_bounded(views, policy, lo, hi);
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

    #[test]
    fn bounded_union_shards_partition_sequential_exactly() {
        let ts: Vec<CompressedTensor> = [
            &[1u64, 3, 40, 41, 800][..],
            &[2, 3, 5, 41, 999],
            &[0, 40, 900, 999],
        ]
        .iter()
        .map(|c| fiber(c))
        .collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let mut whole = union_stream(&views);
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
                let mut s = union_stream_bounded(&views, w[0], w[1]);
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
