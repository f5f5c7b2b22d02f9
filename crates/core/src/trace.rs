//! The memory-trace abstract domain (paper §6): a DAG whose vertices carry
//! projected observation sets plus repetition counts, with the counting
//! procedure of Proposition 2.
//!
//! Following the implementation notes of §6.4, the projection is applied at
//! update time (each [`TraceDag`] serves a single [`Observer`]) and joins
//! are *delayed*: when several control-flow paths are live, the cursor
//! simply holds several frontier vertices, and the ε-join vertex is
//! materialized only by the next update. This delay is what lets repeated
//! accesses to the same unit merge into a repetition set across a branch
//! re-convergence (paper Ex. 9 / Fig. 4) so that stuttering observers count
//! them as a single observation.
//!
//! # Cursor discipline
//!
//! A [`Cursor`] is the frontier of one abstract execution path. Cursors are
//! deliberately **not** `Clone`: duplicating one (when the analysis forks on
//! an unknown branch flag) must go through [`TraceDag::clone_cursor`] so the
//! DAG can track how many paths share each frontier vertex — in-place
//! repetition bumps are only sound for exclusively-owned vertices.

use std::fmt;
use std::hash::{Hash, Hasher};

use leakaudit_mpi::Natural;

use crate::hash::FxHasher;
use crate::observer::{ObsSet, Observer};
use crate::value::ValueSet;

/// Identifier of a vertex in a [`TraceDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(u32);

impl VertexId {
    /// Raw index into the DAG's vertex table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vertex label: the root/join marker ε, or a set of projected
/// observations (paper §6.1's `L(v)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// No observation (root and join vertices).
    Epsilon,
    /// The observations one access at this program point may produce.
    Obs(ObsSet),
}

/// The repetition-count set `R(v)` of paper §6.1.
///
/// Almost every vertex carries a single count (`{1}`, bumped in place on
/// true repetitions), so the singleton case is stored inline; only
/// vertices that merged siblings with different counts allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reps {
    /// Exactly one possible repetition count.
    One(u64),
    /// Several possible counts (canonical: sorted, deduplicated, and
    /// never a singleton). A sorted `Vec` beats a `BTreeSet` here: the
    /// sets are tiny (one entry per distinct trip count that merged),
    /// and the hot operation is [`Reps::bump`], which only shifts every
    /// element — in place for a `Vec`, a full rebuild for a tree.
    Many(Vec<u64>),
}

impl Reps {
    fn one() -> Self {
        Reps::One(1)
    }

    /// Number of possible counts — the factor `|R(v)|`.
    fn len(&self) -> usize {
        match self {
            Reps::One(_) => 1,
            Reps::Many(s) => s.len(),
        }
    }

    /// Adds 1 to every possible count (one more repetition observed).
    /// Shifting preserves sortedness and distinctness, so this never
    /// re-canonicalizes.
    fn bump(&mut self) {
        match self {
            Reps::One(r) => *r += 1,
            Reps::Many(v) => {
                for r in v {
                    *r += 1;
                }
            }
        }
    }

    /// Unions another repetition set in (sibling merge, §6.4 join rule).
    fn extend_from(&mut self, other: &Reps) {
        let mut v: Vec<u64> = self.iter().chain(other.iter()).collect();
        v.sort_unstable();
        v.dedup();
        *self = if v.len() == 1 {
            Reps::One(v[0])
        } else {
            Reps::Many(v)
        };
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (one, many) = match self {
            Reps::One(r) => (Some(*r), None),
            Reps::Many(v) => (None, Some(v.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// Predecessor edges of a vertex: almost always exactly one (a chain),
/// several only for ε-join vertices — kept inline to spare the
/// per-vertex `Vec` allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Preds {
    /// The root: no predecessors.
    None,
    /// A chain vertex.
    One(VertexId),
    /// An ε-join vertex.
    Many(Vec<VertexId>),
}

impl Preds {
    fn as_slice(&self) -> &[VertexId] {
        match self {
            Preds::None => &[],
            Preds::One(v) => std::slice::from_ref(v),
            Preds::Many(vs) => vs,
        }
    }
}

/// An intermediate trace count: a `u128` while it fits, a [`Natural`]
/// once it overflows (see [`TraceDag::count`]).
#[derive(Clone, Debug)]
enum Cnt {
    Small(u128),
    Big(Natural),
}

impl Cnt {
    fn add(&self, other: &Cnt) -> Cnt {
        match (self, other) {
            (Cnt::Small(a), Cnt::Small(b)) => match a.checked_add(*b) {
                Some(s) => Cnt::Small(s),
                None => Cnt::Big(natural_from_u128(*a) + natural_from_u128(*b)),
            },
            (Cnt::Big(a), Cnt::Big(b)) => Cnt::Big(a + b),
            (Cnt::Big(a), Cnt::Small(b)) | (Cnt::Small(b), Cnt::Big(a)) => {
                Cnt::Big(a + &natural_from_u128(*b))
            }
        }
    }

    fn mul(&self, other: &Cnt) -> Cnt {
        match (self, other) {
            (Cnt::Small(a), Cnt::Small(b)) => match a.checked_mul(*b) {
                Some(p) => Cnt::Small(p),
                None => Cnt::Big(&natural_from_u128(*a) * &natural_from_u128(*b)),
            },
            (Cnt::Big(a), Cnt::Big(b)) => Cnt::Big(a * b),
            (Cnt::Big(a), Cnt::Small(b)) | (Cnt::Small(b), Cnt::Big(a)) => {
                Cnt::Big(a * &natural_from_u128(*b))
            }
        }
    }

    fn mul_u64(&self, factor: u64) -> Cnt {
        self.mul(&Cnt::Small(u128::from(factor)))
    }

    fn into_natural(self) -> Natural {
        match self {
            Cnt::Small(n) => natural_from_u128(n),
            Cnt::Big(n) => n,
        }
    }
}

/// Panic message of [`TraceDag::count`] when a count is read after its
/// only reader took it: the DAG's `children`/`cursor_refs` are wrong.
const HANDED_OVER: &str = "vertex count read after it was handed over";

fn natural_from_u128(n: u128) -> Natural {
    Natural::from_limbs(vec![
        n as u32,
        (n >> 32) as u32,
        (n >> 64) as u32,
        (n >> 96) as u32,
    ])
}

/// Outcome of matching one access against one frontier vertex (see
/// [`TraceDag::update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DagStep {
    /// Stuttering observer, same unit: the cursor stays put.
    Stutter,
    /// Exclusive same-unit repetition: bump `R(v)` in place.
    Bump,
    /// A new vertex must extend the path.
    Extend,
}

#[derive(Debug, Clone)]
struct Vertex {
    label: Label,
    /// Possible repetition counts `R(v)` (paper §6.1).
    reps: Reps,
    preds: Preds,
    /// Number of child edges (vertices listing this one as a pred).
    children: u32,
    /// Number of live cursors whose frontier includes this vertex.
    cursor_refs: u32,
    /// Dissolved into a sibling by the §6.4 join rule: no edge or cursor
    /// refers to it again. It stays in the vertex table — at most one
    /// per sibling merge — and the counting pass skips it.
    dead: bool,
}

/// The frontier of one abstract execution path in a [`TraceDag`].
///
/// Holds one or more vertices when joins are pending (delayed-join
/// discipline of §6.4). [`TraceDag::advance`] moves a cursor where it
/// lives, so a table of cursors updates one in its slot;
/// [`TraceDag::update`] and [`TraceDag::access`] take and return it by
/// value.
#[derive(Debug)]
pub struct Cursor {
    verts: Vec<VertexId>,
}

impl Cursor {
    /// The frontier vertices.
    pub fn vertices(&self) -> &[VertexId] {
        &self.verts
    }
}

/// A memory-trace DAG specialized to one observer (paper §6).
///
/// ```
/// use leakaudit_core::{Observer, TraceDag, ValueSet};
///
/// let (mut dag, cur) = TraceDag::new(Observer::block(6));
/// // One access to a known address: one possible observation.
/// let cur = dag.access(cur, &ValueSet::constant(0x41a90, 32));
/// assert_eq!(dag.count(&cur).to_u64(), Some(1));
/// // An access to one of two far-apart addresses: two observations.
/// let cur = dag.access(cur, &ValueSet::from_constants([0x0, 0x1000], 32));
/// assert_eq!(dag.count(&cur).to_u64(), Some(2));
/// ```
#[derive(Debug)]
pub struct TraceDag {
    observer: Observer,
    /// Vertex ids are topological: predecessors precede children, and
    /// the ε root is vertex 0. Tail collapse keeps DAGs small (about a
    /// thousand vertices at most over the scenario registries), so a
    /// plain vector holds them.
    vertices: Vec<Vertex>,
}

impl TraceDag {
    /// Creates an empty DAG (a single ε root) and its initial cursor.
    pub fn new(observer: Observer) -> (Self, Cursor) {
        let root = Vertex {
            label: Label::Epsilon,
            reps: Reps::one(),
            preds: Preds::None,
            children: 0,
            cursor_refs: 1,
            dead: false,
        };
        let dag = TraceDag {
            observer,
            vertices: vec![root],
        };
        let cursor = Cursor {
            verts: vec![VertexId(0)],
        };
        (dag, cursor)
    }

    /// The observer this DAG projects through.
    pub fn observer(&self) -> Observer {
        self.observer
    }

    /// Duplicates a cursor when the analysis forks on an unknown branch.
    pub fn clone_cursor(&mut self, c: &Cursor) -> Cursor {
        for &v in &c.verts {
            self.vertices[v.index()].cursor_refs += 1;
        }
        Cursor {
            verts: c.verts.clone(),
        }
    }

    /// Joins two paths that reached the same program point (paper §6.4
    /// join). The join is *delayed*: the union frontier is kept and the ε
    /// vertex is materialized by the next [`TraceDag::update`].
    pub fn merge_cursors(&mut self, a: Cursor, b: Cursor) -> Cursor {
        let mut verts = a.verts;
        for v in b.verts {
            if verts.contains(&v) {
                // Referenced once by the merged cursor, not twice.
                self.vertices[v.index()].cursor_refs -= 1;
            } else {
                verts.push(v);
            }
        }
        // Paper §6.4 join: frontier vertices with the same parents and the
        // same label merge, unioning their repetition sets.
        self.merge_equal_siblings(&mut verts);
        verts.sort();
        Cursor { verts }
    }

    /// Records one memory access with the given set of possible addresses.
    pub fn access(&mut self, c: Cursor, addresses: &ValueSet) -> Cursor {
        let obs = self.observer.project_set(addresses);
        self.update(c, &obs)
    }

    /// Records one access with an already-projected observation set
    /// (paper §6.4 update): [`TraceDag::advance`] on an owned cursor.
    pub fn update(&mut self, mut c: Cursor, obs: &ObsSet) -> Cursor {
        self.advance(&mut c, obs);
        c
    }

    /// Records one access with an already-projected observation set
    /// (paper §6.4 update), moving the cursor where it lives.
    ///
    /// The observation set is borrowed: the analyzer's sink projects an
    /// access once per granularity and hands the same set to every lane, and the
    /// stuttering/repetition fast paths never need an owned copy. The
    /// cursor is borrowed too, so a caller that keeps cursors in a table
    /// advances one in its slot.
    pub fn advance(&mut self, c: &mut Cursor, obs: &ObsSet) {
        // Fast path: a single frontier vertex — the overwhelmingly common
        // case (straight-line code between forks). Reuses the cursor's
        // vertex buffer and allocates at most one new vertex — usually
        // none at all, because an extend from a count-transparent private
        // tail overwrites it in place (see `collapse_target`).
        if let [v] = c.verts[..] {
            let step = self.classify(v, obs);
            self.apply_singleton(c, v, obs, step);
        } else {
            let verts = std::mem::take(&mut c.verts);
            c.verts = self.update_frontier(verts, obs);
        }
    }

    /// Whether an extend from frontier vertex `v` may *overwrite* `v` in
    /// place instead of appending a child — the tail-collapse rule that
    /// keeps chain-shaped DAGs bounded by their branch structure instead
    /// of their event count.
    ///
    /// A vertex is count-transparent when its repetition factor and its
    /// label factor are both 1 (a singleton repetition set and a
    /// singleton observation): its count equals its
    /// predecessor's, so removing it from the path cannot change any
    /// trace count. Overwriting additionally requires that nothing else
    /// can ever observe `v`'s identity:
    ///
    /// - `cursor_refs == 1 && children == 0`: only this cursor holds the
    ///   vertex and nothing extends it (the exclusivity condition of the
    ///   in-place bump).
    /// - its single predecessor has `children == 1` and no cursor: no
    ///   sibling shares (or can ever come to share — a childless interior
    ///   vertex with no cursor can never gain either) the predecessor
    ///   edge, so the §6.4 sibling merge can never compare `v`'s `preds`
    ///   against an equal one. This keeps the DAG's merge behaviour —
    ///   and therefore every count — bit-identical to the append-only
    ///   shape: the first vertex after a fork point survives as the
    ///   path's anchor, and only the private chain behind it collapses.
    fn collapse_target(&self, v: VertexId) -> bool {
        let vert = &self.vertices[v.index()];
        if vert.cursor_refs != 1
            || vert.children != 0
            || vert.reps.len() != 1
            || !matches!(&vert.label, Label::Obs(o) if o.is_singleton())
        {
            return false;
        }
        match vert.preds {
            Preds::One(p) => {
                let pred = &self.vertices[p.index()];
                pred.children == 1 && pred.cursor_refs == 0
            }
            _ => false,
        }
    }

    /// Mutation half of the singleton-frontier update.
    fn apply_singleton(&mut self, c: &mut Cursor, v: VertexId, obs: &ObsSet, step: DagStep) {
        match step {
            DagStep::Stutter => {}
            DagStep::Bump => self.vertices[v.index()].reps.bump(),
            DagStep::Extend => {
                // Tail collapse: a count-transparent private tail is
                // overwritten in place — the chain stays one hot vertex
                // long instead of growing per event (see
                // [`TraceDag::collapse_target`]).
                if self.collapse_target(v) {
                    let vert = &mut self.vertices[v.index()];
                    vert.label = Label::Obs(obs.clone());
                    vert.reps = Reps::one();
                    return;
                }
                self.vertices[v.index()].cursor_refs -= 1;
                self.vertices[v.index()].children += 1;
                c.verts[0] = self.push_vertex(Label::Obs(obs.clone()), Preds::One(v), 1);
            }
        }
    }

    /// The general (multi-vertex frontier) update path: consumes the old
    /// frontier and returns the new one.
    fn update_frontier(&mut self, verts: Vec<VertexId>, obs: &ObsSet) -> Vec<VertexId> {
        let mut stuttered: Vec<VertexId> = Vec::new();
        let mut pending: Vec<VertexId> = Vec::new();
        for v in verts {
            match self.classify(v, obs) {
                // A stuttering observer cannot see the repetition at all:
                // the set of (collapsed) views is unchanged, so the cursor
                // simply stays put. This needs no exclusivity condition —
                // nothing is mutated — and it is what lets re-converging
                // paths with equal collapsed views merge at the join
                // (paper Fig. 15b: the -O1 layout's b-block leak is zero).
                DagStep::Stutter => stuttered.push(v),
                DagStep::Bump => {
                    self.vertices[v.index()].reps.bump();
                    stuttered.push(v);
                }
                DagStep::Extend => pending.push(v),
            }
        }

        let mut new_verts = stuttered;
        if !pending.is_empty() {
            // Materialize the delayed join if several paths remain.
            // `children` counts actual child edges exactly: the single
            // parent gets one edge (from the new child), each member of
            // an ε-join gets one edge (from the ε vertex), and the ε
            // vertex itself one (from the new child).
            let parent = if pending.len() == 1 {
                let p = pending[0];
                self.vertices[p.index()].cursor_refs -= 1;
                p
            } else {
                for &p in &pending {
                    self.vertices[p.index()].cursor_refs -= 1;
                    self.vertices[p.index()].children += 1;
                }
                self.push_vertex(Label::Epsilon, Preds::Many(pending), 0)
            };
            let child = self.push_vertex(Label::Obs(obs.clone()), Preds::One(parent), 1);
            self.vertices[parent.index()].children += 1;
            new_verts.push(child);
        }

        // Merge frontier vertices with identical parents and labels,
        // unioning their repetition sets (paper §6.4 join rule).
        self.merge_equal_siblings(&mut new_verts);
        new_verts.sort();
        new_verts
    }

    /// How one frontier vertex reacts to an access labeled `obs`.
    fn classify(&self, v: VertexId, obs: &ObsSet) -> DagStep {
        let vert = &self.vertices[v.index()];
        // Whether `obs` denotes exactly the unit of `v`'s label.
        let same_unit = obs.is_singleton() && matches!(&vert.label, Label::Obs(o) if o == obs);
        if same_unit && self.observer.is_stuttering() {
            return DagStep::Stutter;
        }
        // In-place repetition bump is sound only when the label denotes
        // a *single* masked observation (a true repetition of the same
        // address unit) and no other path shares or extends this vertex.
        if same_unit && vert.cursor_refs == 1 && vert.children == 0 {
            return DagStep::Bump;
        }
        DagStep::Extend
    }

    #[inline]
    fn push_vertex(&mut self, label: Label, preds: Preds, cursor_refs: u32) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            label,
            reps: Reps::one(),
            preds,
            children: 0,
            cursor_refs,
            dead: false,
        });
        id
    }

    /// The §6.4 join rule: frontier vertices with the same preds and the
    /// same label merge, unioning their repetition sets.
    ///
    /// The pairwise scan is quadratic, and the frontier of retired paths
    /// grows to a hundred and more vertices that almost never merge, so
    /// the scan runs only when [`TraceDag::may_have_equal_siblings`]
    /// finds a candidate pair. Otherwise no pair is equal and the scan
    /// would change nothing.
    fn merge_equal_siblings(&mut self, verts: &mut Vec<VertexId>) {
        if !self.may_have_equal_siblings(verts) {
            return;
        }
        let mut i = 0;
        while i < verts.len() {
            let mut j = i + 1;
            while j < verts.len() {
                let (a, b) = (verts[i], verts[j]);
                // Only a vertex that is exclusively owned by this cursor and
                // has no descendants may be dissolved into its sibling.
                let disposable = |v: &Vertex| v.children == 0 && v.cursor_refs == 1;
                let (keep, drop) = {
                    let va = &self.vertices[a.index()];
                    let vb = &self.vertices[b.index()];
                    if !(va.label == vb.label && va.preds == vb.preds) {
                        j += 1;
                        continue;
                    }
                    if disposable(vb) {
                        (a, b)
                    } else if disposable(va) {
                        (b, a)
                    } else {
                        j += 1;
                        continue;
                    }
                };
                let dropped_reps = self.vertices[drop.index()].reps.clone();
                self.vertices[keep.index()].reps.extend_from(&dropped_reps);
                for p in self.vertices[drop.index()].preds.clone().as_slice() {
                    self.vertices[p.index()].children -= 1;
                }
                self.vertices[drop.index()].dead = true;
                verts[i] = keep;
                verts.remove(j);
            }
            i += 1;
        }
    }

    /// Whether two of `verts` share a hash of (preds, label summary).
    /// Equal siblings always do, so `false` proves there are none. The
    /// label enters only through [`ObsSet::hash_summary`]: hashing every
    /// element of a wide label would cost more than the scan it saves.
    fn may_have_equal_siblings(&self, verts: &[VertexId]) -> bool {
        if verts.len() < 2 {
            return false;
        }
        let mut hashes: Vec<u64> = verts
            .iter()
            .map(|v| {
                let vert = &self.vertices[v.index()];
                let mut h = FxHasher::default();
                vert.preds.hash(&mut h);
                match &vert.label {
                    Label::Epsilon => h.write_u8(0),
                    Label::Obs(o) => {
                        h.write_u8(1);
                        o.hash_summary(&mut h);
                    }
                }
                h.finish()
            })
            .collect();
        hashes.sort_unstable();
        hashes.windows(2).any(|w| w[0] == w[1])
    }

    /// Upper-bounds the number of distinguishable observation sequences for
    /// the traces ending at this cursor — `cnt^π` of paper Eq. 3 /
    /// Proposition 2. For stuttering observers the repetition factor
    /// `|R(v)|` is replaced by 1.
    ///
    /// One pass over the vertices in id order, which is topological
    /// (predecessors precede children). Per-vertex counts are accumulated
    /// in `u128` machine words and only spill into big-number arithmetic
    /// once a product overflows: the zero-leak case studies (counts
    /// staying 1 across a whole DAG) never allocate a single limb
    /// vector. A predecessor read by exactly one child and
    /// held by no cursor hands its count over instead of copying it (see
    /// `pred_count`), so a chain of big counts is not cloned vertex by
    /// vertex. A handed-over slot is left empty, so a slip in the
    /// `children`/`cursor_refs` bookkeeping that lets it be read again
    /// panics instead of undercounting.
    pub fn count(&self, c: &Cursor) -> Natural {
        let mut counts: Vec<Option<Cnt>> = Vec::with_capacity(self.vertices.len());
        for v in self.vertices.iter() {
            if v.dead {
                // Dead vertices have no children and sit on no frontier,
                // so this entry is never read.
                counts.push(None);
                continue;
            }
            let preds_sum = match v.preds.as_slice() {
                [] => Cnt::Small(1),
                [p] => self.pred_count(&mut counts, *p),
                preds => preds.iter().fold(Cnt::Small(0), |s, &p| {
                    s.add(&self.pred_count(&mut counts, p))
                }),
            };
            let rep_factor = if self.observer.is_stuttering() {
                1
            } else {
                v.reps.len() as u64
            };
            let label_factor = match &v.label {
                Label::Epsilon => Cnt::Small(1),
                Label::Obs(o) => match o.count_u64() {
                    Some(n) => Cnt::Small(u128::from(n)),
                    None => Cnt::Big(o.count()),
                },
            };
            // The dominant zero-leak shape — single-count vertex, single
            // observation — multiplies by 1 twice; skip both.
            let entry = match (rep_factor, &label_factor) {
                (1, Cnt::Small(1)) => preds_sum,
                (1, _) => preds_sum.mul(&label_factor),
                _ => preds_sum.mul_u64(rep_factor).mul(&label_factor),
            };
            counts.push(Some(entry));
        }
        let mut total = Cnt::Small(0);
        for &v in &c.verts {
            total = total.add(counts[v.index()].as_ref().expect(HANDED_OVER));
        }
        total.into_natural()
    }

    /// Predecessor `p`'s count, as read by one of its children during
    /// [`TraceDag::count`]. When `p` has a single child edge and no
    /// cursor, that child is its only reader — no sibling and no frontier
    /// sum ever reads it again — so the count is moved out of `counts`
    /// rather than cloned.
    fn pred_count(&self, counts: &mut [Option<Cnt>], p: VertexId) -> Cnt {
        let pred = &self.vertices[p.index()];
        let slot = &mut counts[p.index()];
        if pred.children == 1 && pred.cursor_refs == 0 {
            slot.take()
        } else {
            slot.clone()
        }
        .expect(HANDED_OVER)
    }

    /// Converts an observation count to a leakage bound in bits:
    /// `log2(count)` (paper §4). Zero observations (dead path) and a
    /// single observation both mean 0 bits.
    pub fn bits_for_count(n: &Natural) -> f64 {
        if n.is_zero() {
            0.0
        } else {
            n.log2()
        }
    }

    /// Leakage bound in bits for the traces ending at this cursor
    /// ([`TraceDag::bits_for_count`] of [`TraceDag::count`]).
    pub fn leakage_bits(&self, c: &Cursor) -> f64 {
        Self::bits_for_count(&self.count(c))
    }

    /// Renders the DAG in Graphviz DOT format (Fig. 4-style pictures).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph trace {\n  rankdir=TB;\n");
        for (i, v) in self.vertices.iter().enumerate() {
            if v.dead {
                continue;
            }
            let label = match &v.label {
                Label::Epsilon if i == 0 => "r".to_string(),
                Label::Epsilon => "ε".to_string(),
                Label::Obs(o) => format!("{o}"),
            };
            let reps: Vec<String> = v.reps.iter().map(|r| r.to_string()).collect();
            s.push_str(&format!(
                "  v{} [label=\"{} ×{{{}}}\"];\n",
                i,
                label.replace('"', "'"),
                reps.join(",")
            ));
        }
        for (i, v) in self.vertices.iter().enumerate() {
            if v.dead {
                continue;
            }
            for p in v.preds.as_slice() {
                s.push_str(&format!("  v{} -> v{};\n", p.index(), i));
            }
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for TraceDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceDag[{}] with {} vertices",
            self.observer,
            self.vertices.iter().filter(|v| !v.dead).count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts(vals: &[u64]) -> ValueSet {
        ValueSet::from_constants(vals.iter().copied(), 32)
    }

    /// Drives the update/fork/merge protocol exactly as the analysis engine
    /// does for the libgcrypt 1.5.3 branch of paper Ex. 9 / Fig. 4, and
    /// checks the three counts the paper reports: 2 traces for the
    /// address- and block-trace observers (1 bit), 1 for the stuttering
    /// block-trace observer (0 bits).
    fn example9(observer: Observer) -> Natural {
        let (mut dag, mut cur) = TraceDag::new(observer);
        // Common prefix: mov, test, jne at 41a90/41a97/41a99.
        for pc in [0x41a90u64, 0x41a97, 0x41a99] {
            cur = dag.access(cur, &consts(&[pc]));
        }
        // Fork on the secret-dependent jump.
        let taken = dag.clone_cursor(&cur);
        // Fall-through path executes 41a9b/41a9d/41a9f.
        for pc in [0x41a9bu64, 0x41a9d, 0x41a9f] {
            cur = dag.access(cur, &consts(&[pc]));
        }
        // Join at 41aa1 and execute it.
        let mut cur = dag.merge_cursors(cur, taken);
        cur = dag.access(cur, &consts(&[0x41aa1]));
        dag.count(&cur)
    }

    #[test]
    fn example_9_address_observer_leaks_one_bit() {
        assert_eq!(example9(Observer::address()).to_u64(), Some(2));
    }

    #[test]
    fn example_9_block_observer_leaks_one_bit() {
        // All code lies in the 64-byte block 0x41a80: the two paths differ
        // only in how often the block repeats.
        assert_eq!(example9(Observer::block(6)).to_u64(), Some(2));
    }

    #[test]
    fn example_9_stuttering_block_observer_leaks_nothing() {
        assert_eq!(example9(Observer::block(6).stuttering()).to_u64(), Some(1));
    }

    #[test]
    fn example_9_32byte_blocks_stuttering_is_tight() {
        // With 32-byte blocks both paths produce the stuttering view
        // (0x20d4, 0x20d5) — truly indistinguishable. Because stuttering
        // cursors do not move on same-unit accesses, the two frontiers
        // coincide and merge at the join: the bound is tight.
        let n = example9(Observer::block(5).stuttering());
        assert_eq!(n.to_u64(), Some(1));
    }

    #[test]
    fn repetition_counts_distinguish_exact_observers() {
        // Loop accessing the same block 3 vs 5 times, merged: the exact
        // block observer sees the count, the stuttering one does not.
        for (observer, expected) in [
            (Observer::block(6), 2),
            (Observer::block(6).stuttering(), 1),
        ] {
            let (mut dag, cur) = TraceDag::new(observer);
            let mut a = dag.access(cur, &consts(&[0x100]));
            let b = dag.clone_cursor(&a);
            for _ in 0..2 {
                a = dag.access(a, &consts(&[0x104]));
            }
            let mut b = b;
            for _ in 0..4 {
                b = dag.access(b, &consts(&[0x108]));
            }
            // Paths: block(0x100) then 2× vs 4× block(0x104/0x108 — same
            // 64-byte block 0x100..0x13f).
            let merged = dag.merge_cursors(a, b);
            let cur = dag.access(merged, &consts(&[0x200]));
            assert_eq!(dag.count(&cur).to_u64(), Some(expected), "{observer}");
        }
    }

    #[test]
    fn secret_indexed_access_counts_units() {
        // One access to {base + 64k | k in 0..8}: 8 blocks → 3 bits.
        let (mut dag, cur) = TraceDag::new(Observer::block(6));
        let addrs: Vec<u64> = (0..8).map(|k| 0x8000 + 64 * k).collect();
        let cur = dag.access(cur, &consts(&addrs));
        assert_eq!(dag.count(&cur).to_u64(), Some(8));
        assert_eq!(dag.leakage_bits(&cur), 3.0);
    }

    #[test]
    fn per_access_counts_multiply_along_a_path() {
        // 384 accesses, each to one of 8 addresses: 8^384 = 2^1152 — the
        // Fig. 14c D-cache address-trace bound.
        let (mut dag, mut cur) = TraceDag::new(Observer::address());
        for i in 0..384u64 {
            let addrs: Vec<u64> = (0..8).map(|k| 0x8000 + k + 8 * i).collect();
            cur = dag.access(cur, &consts(&addrs));
        }
        assert_eq!(dag.leakage_bits(&cur), 1152.0);
    }

    #[test]
    fn forked_paths_sum() {
        let (mut dag, cur) = TraceDag::new(Observer::address());
        let mut a = dag.access(cur, &consts(&[0x10]));
        let b = dag.clone_cursor(&a);
        a = dag.access(a, &consts(&[0x20]));
        let mut b = b;
        b = dag.access(b, &consts(&[0x30]));
        b = dag.access(b, &consts(&[0x40]));
        let merged = dag.merge_cursors(a, b);
        // Two distinct continuations: 0x10·0x20 and 0x10·0x30·0x40.
        assert_eq!(dag.count(&merged).to_u64(), Some(2));
    }

    #[test]
    fn epsilon_join_caps_frontier_growth() {
        // Repeated fork/join with distinct labels must not blow up the
        // cursor: the ε join collapses the frontier at the next update.
        let (mut dag, mut cur) = TraceDag::new(Observer::address());
        for round in 0..10u64 {
            let other = dag.clone_cursor(&cur);
            cur = dag.access(cur, &consts(&[0x1000 + round]));
            let other = dag.access(other, &consts(&[0x2000 + round]));
            cur = dag.merge_cursors(cur, other);
            cur = dag.access(cur, &consts(&[0x3000]));
            assert!(cur.vertices().len() <= 2, "frontier stays bounded");
        }
        // 2 choices per round over 10 rounds.
        assert_eq!(dag.leakage_bits(&cur), 10.0);
    }

    #[test]
    fn top_address_charges_projection_width() {
        let (mut dag, cur) = TraceDag::new(Observer::block(6));
        let cur = dag.access(cur, &ValueSet::top(32));
        assert_eq!(dag.leakage_bits(&cur), 26.0);
    }

    #[test]
    fn interleaved_counts_stay_correct_under_mutation() {
        // Count after every mutation kind (extend, in-place bump, fork,
        // sibling merge) and check each intermediate value against the
        // closed form.
        let (mut dag, mut cur) = TraceDag::new(Observer::address());
        cur = dag.access(cur, &consts(&[0x10]));
        assert_eq!(dag.count(&cur).to_u64(), Some(1));
        // In-place repetition bump mutates the just-counted vertex:
        // R(v) becomes {2}, still one possible count.
        cur = dag.access(cur, &consts(&[0x10]));
        assert_eq!(dag.count(&cur).to_u64(), Some(1));
        cur = dag.access(cur, &consts(&[0x20, 0x30]));
        assert_eq!(dag.count(&cur).to_u64(), Some(2));
        // Fork, diverge to the same label, merge: the sibling merge
        // mutates the surviving vertex after it may have been counted.
        let other = dag.clone_cursor(&cur);
        cur = dag.access(cur, &consts(&[0x40]));
        assert_eq!(dag.count(&cur).to_u64(), Some(2));
        let other = dag.access(other, &consts(&[0x40]));
        let merged = dag.merge_cursors(cur, other);
        let cur = dag.access(merged, &consts(&[0x50]));
        // Same label, same parent: the sibling paths collapse to one
        // vertex with R = {1} — no extra factor.
        assert_eq!(dag.count(&cur).to_u64(), Some(2));
    }

    /// Number of live (not dissolved) vertices, read off `Display`.
    fn live_vertices(dag: &TraceDag) -> usize {
        let shown = dag.to_string();
        let n = shown.trim_end_matches(" vertices").rsplit(' ').next();
        n.and_then(|n| n.parse().ok())
            .expect("Display ends in the count")
    }

    #[test]
    fn retired_paths_merge_only_their_equal_pair() {
        // `Lane::retire`'s shape: many halted paths, all children of one
        // vertex, folded into one final cursor a path at a time.
        const DISTINCT: u64 = 42;
        let (mut dag, cur) = TraceDag::new(Observer::address());
        let base = dag.access(cur, &consts(&[0x10]));
        let mut paths = Vec::new();
        // The equal pair sits at both ends; every other label has two
        // observations. The second and third labels share their size
        // and first observation, so their summaries collide while the
        // labels differ.
        let equal = consts(&[0x9000, 0x9001, 0x9002]);
        let mut labels = vec![equal.clone()];
        for i in 0..DISTINCT {
            let first = if i < 2 { 0x5000 } else { 0x1000 * (i + 1) };
            labels.push(consts(&[first, 0x100_0000 + i]));
        }
        labels.push(equal);
        for label in &labels {
            let path = dag.clone_cursor(&base);
            paths.push(dag.access(path, label));
        }
        let live_before = live_vertices(&dag);

        let mut finals: Option<Cursor> = None;
        for path in paths {
            finals = Some(match finals.take() {
                None => path,
                Some(acc) => dag.merge_cursors(acc, path),
            });
        }
        let finals = finals.expect("paths were retired");
        // Exactly one vertex (of the equal pair) dissolved.
        assert_eq!(finals.vertices().len() as u64, DISTINCT + 1);
        assert_eq!(live_vertices(&dag), live_before - 1);
        // Closed form: 2 observations per distinct path, 3 for the
        // merged pair counted once.
        assert_eq!(dag.count(&finals).to_u64(), Some(2 * DISTINCT + 3));
    }

    #[test]
    fn equal_siblings_that_are_not_disposable_do_not_merge() {
        let (mut dag, cur) = TraceDag::new(Observer::address());
        let base = dag.access(cur, &consts(&[0x10]));
        // Two siblings with one label, each also held by a second cursor,
        // so neither may be dissolved into the other.
        let (a, b) = (dag.clone_cursor(&base), dag.clone_cursor(&base));
        let a = dag.access(a, &consts(&[0x20, 0x30]));
        let b = dag.access(b, &consts(&[0x20, 0x30]));
        let _a_alias = dag.clone_cursor(&a);
        let _b_alias = dag.clone_cursor(&b);
        let merged = dag.merge_cursors(a, b);
        assert_eq!(merged.vertices().len(), 2);
        assert_eq!(dag.count(&merged).to_u64(), Some(4));
    }

    #[test]
    fn dot_output_mentions_vertices() {
        let (mut dag, cur) = TraceDag::new(Observer::address());
        let _cur = dag.access(cur, &consts(&[0x41a90]));
        let dot = dag.to_dot();
        assert!(dot.contains("digraph trace"));
        assert!(dot.contains("0x41a90"));
    }
}
