//! Felsenstein-pruning likelihood evaluation.
//!
//! [`Workspace::evaluate`] computes the log-likelihood of a compressed
//! alignment ([`PatternSet::compress`]) on a tree under a
//! [`ReversibleModel`] of the same data type and a [`SiteRates`] mixture,
//! with per-pattern numerical scaling so thousand-taxon trees do not
//! underflow.
//!
//! ## Layout and workspace
//!
//! Each internal node's conditional likelihood vector (CLV, its partials)
//! is one buffer laid out `[pattern][category][state]`, so the states of
//! one pattern under every rate category sit together for the per-pattern
//! rescale and the root sum. Tips are read from [`PatternSet`]'s
//! taxon-major table, one contiguous run of states per taxon. A
//! [`Workspace`] owns the CLVs and the transition matrices of the edge
//! being combined; a search keeps one for its whole run, so after its first
//! evaluation the kernel allocates nothing and faults in no fresh pages
//! (only a `P(t)` memo miss builds a new matrix).
//! [`evaluate_patterns`] is the one-shot form and evaluates in a fresh
//! workspace.
//!
//! ## Operation order
//!
//! Every likelihood cell is computed with the same floating-point
//! operations, in the same order, as the straightforward loop this kernel
//! replaced (kept as a test reference). Search pins, the grid's recorded
//! runtimes and the benchmark fingerprints compare log-likelihoods bit for
//! bit, so the order is part of the contract:
//!
//! * the first child *stores* its factor and later children multiply into
//!   it (the original started from 1.0, and `1.0 · x == x` exactly);
//! * every inner product `Σ_j P_ij · L_j` starts at 0.0 and sums `j` in
//!   ascending order; independent accumulators run across output states
//!   `i`, never across `j`;
//! * a resolved tip multiplies by one column of `P` (kept transposed so the
//!   column is contiguous), an ambiguous tip by the ascending sum of its
//!   allowed columns;
//! * the rescale test, the order of its `ln` terms, the root term and the
//!   early `-inf` exit are unchanged.
//!
//! There is no fused multiply-add and no reassociation anywhere.
//!
//! ## Work accounting
//!
//! Every evaluation also counts the *likelihood cells* it touched (the inner
//! products `Σ_j P_ij · L_j`). This deterministic work measure is what the
//! grid simulator uses as ground-truth job cost: it scales exactly like GARLI
//! wall time — linear in site patterns, taxa, and rate categories, quadratic
//! in state count (4 / 20 / 61 for the three data types) — which is what
//! makes the paper's nine job parameters *predictive* of runtime in the
//! first place.

use crate::alphabet::State;
use crate::models::{ReversibleModel, SiteRates, SubstModel};
use crate::patterns::PatternSet;
use crate::tree::Tree;

/// Result of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Log-likelihood (`-inf` if the data has probability zero).
    pub log_likelihood: f64,
    /// Likelihood cells computed (deterministic work measure).
    pub work: u64,
}

/// Log-likelihood of `tree` for a pattern set under `model` and `rates`, in
/// a fresh [`Workspace`]. Loops that score many trees against one pattern
/// set keep a workspace and call [`Workspace::evaluate`] instead.
///
/// # Panics
/// As [`Workspace::evaluate`].
pub fn evaluate_patterns(
    patterns: &PatternSet,
    model: &ReversibleModel,
    rates: &SiteRates,
    tree: &Tree,
) -> Evaluation {
    Workspace::new().evaluate(patterns, model, rates, tree)
}

/// Largest alphabet a [`State`] mask can describe.
const MAX_STATES: usize = 64;

/// The buffers a likelihood evaluation needs, kept between evaluations.
///
/// One CLV per internal node, laid out `[pattern][category][state]`, the
/// per-pattern log scale factors, the traversal order, and the transition
/// matrices of the edge being combined (one per rate category, row-major
/// and transposed). Buffers take the shape of the last evaluation and are
/// freed with the workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// CLV of each internal node, indexed by node (empty for leaves).
    partials: Vec<Vec<f64>>,
    /// Per pattern, the sum of the logs of its rescale factors.
    logscale: Vec<f64>,
    order: Vec<usize>,
    stack: Vec<(usize, bool)>,
    /// `pmat[k][i][j] = P_ij(t·r_k)`.
    pmat: Vec<f64>,
    /// `ptrans[k][j][i] = P_ij(t·r_k)`: column `j` of `P` is contiguous.
    ptrans: Vec<f64>,
}

impl Workspace {
    /// An empty workspace; the first evaluation sizes it.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Log-likelihood of `tree` plus the work counter, in this workspace's
    /// buffers.
    ///
    /// # Panics
    /// Panics if the patterns' data type differs from the model's, or the
    /// tree's taxon count from the pattern set's.
    pub fn evaluate(
        &mut self,
        patterns: &PatternSet,
        model: &ReversibleModel,
        rates: &SiteRates,
        tree: &Tree,
    ) -> Evaluation {
        assert_eq!(
            patterns.data_type(),
            model.data_type(),
            "alignment/model data type mismatch"
        );
        assert_eq!(
            tree.num_taxa(),
            patterns.num_taxa(),
            "tree/alignment taxon count mismatch"
        );
        let Workspace {
            partials,
            logscale,
            order,
            stack,
            pmat,
            ptrans,
        } = self;
        let ns = model.num_states();
        let cats = rates.categories();
        let ncat = cats.len();
        let npat = patterns.num_patterns();
        let block = ncat * ns;
        partials.resize_with(tree.num_nodes(), Vec::new);
        logscale.clear();
        logscale.resize(npat, 0.0);
        pmat.resize(ncat * ns * ns, 0.0);
        ptrans.resize(ncat * ns * ns, 0.0);
        tree.postorder_into(order, stack);
        let mut work: u64 = 0;

        for &node in order.iter() {
            if node == tree.root() || tree.is_leaf(node) {
                continue;
            }
            let mut clv = std::mem::take(&mut partials[node]);
            clv.resize(npat * block, 0.0);
            for (c, &child) in tree.node(node).children.iter().enumerate() {
                let first = c == 0;
                load_matrices(model, cats, tree.branch_length(child), pmat, ptrans);
                work += match tree.node(child).taxon {
                    Some(taxon) => {
                        combine_tip(&mut clv, ptrans, patterns.taxon_states(taxon), ns, first)
                    }
                    None => combine_internal(&mut clv, ptrans, &partials[child], ns, first),
                };
            }
            rescale(&mut clv, logscale, block);
            partials[node] = clv;
        }

        // Root: a leaf (taxon 0) with a single child.
        let root = tree.root();
        let root_taxon = tree.node(root).taxon.expect("root is a leaf");
        let child = tree.node(root).children[0];
        load_matrices(model, cats, tree.branch_length(child), pmat, ptrans);
        let child_tips = tree.node(child).taxon.map(|t| patterns.taxon_states(t));
        let cp = &partials[child];
        let freqs = model.frequencies();

        let mut lnl = 0.0f64;
        let sites = patterns
            .taxon_states(root_taxon)
            .iter()
            .zip(logscale.iter())
            .zip(patterns.weights());
        for (p, ((&root_state, &ls), &weight)) in sites.enumerate() {
            let mut site_like = 0.0f64;
            for (k, (&(_, wk), pm)) in cats.iter().zip(pmat.chunks_exact(ns * ns)).enumerate() {
                let mut cat_like = 0.0f64;
                for (i, row) in pm.chunks_exact(ns).enumerate() {
                    if !root_state.allows(i) {
                        continue;
                    }
                    // Σ_j P_ij · child_j
                    let mut acc = 0.0;
                    match child_tips {
                        Some(tips) => {
                            let cs = tips[p];
                            for (j, &pij) in row.iter().enumerate() {
                                if cs.allows(j) {
                                    acc += pij;
                                }
                            }
                        }
                        None => {
                            let base = (p * ncat + k) * ns;
                            for (&pij, &l) in row.iter().zip(&cp[base..base + ns]) {
                                acc += pij * l;
                            }
                        }
                    }
                    work += ns as u64;
                    cat_like += freqs[i] * acc;
                }
                site_like += wk * cat_like;
            }
            if site_like <= 0.0 {
                return Evaluation {
                    log_likelihood: f64::NEG_INFINITY,
                    work,
                };
            }
            lnl += weight * (site_like.ln() + ls);
        }
        Evaluation {
            log_likelihood: lnl,
            work,
        }
    }
}

/// Fill `pmat` with `P(t·r_k)` for every rate category `k`, and `ptrans`
/// with their transposes.
fn load_matrices(
    model: &ReversibleModel,
    cats: &[(f64, f64)],
    t: f64,
    pmat: &mut [f64],
    ptrans: &mut [f64],
) {
    let ns = model.num_states();
    let nn = ns * ns;
    let mats = pmat.chunks_exact_mut(nn).zip(ptrans.chunks_exact_mut(nn));
    for (&(r, _), (pm, pt)) in cats.iter().zip(mats) {
        model.transition_matrix_into(t * r, pm);
        for (i, row) in pm.chunks_exact(ns).enumerate() {
            for (j, &pij) in row.iter().enumerate() {
                pt[j * ns + i] = pij;
            }
        }
    }
}

/// Store `factor` into `out` for a node's first child; multiply it in for
/// later children.
#[inline(always)]
fn put(out: &mut [f64], factor: &[f64], first: bool) {
    if first {
        out.copy_from_slice(factor);
    } else {
        for (o, &f) in out.iter_mut().zip(factor) {
            *o *= f;
        }
    }
}

/// Combine a tip child into `clv`. Per pattern and category, a resolved
/// tip's factor is one column of `P`; an ambiguous tip's is the ascending
/// sum of its allowed columns. Returns cells computed.
///
/// Both combines stay out of line: inlined into [`Workspace::evaluate`]
/// they ran 1–9% slower per evaluation.
#[inline(never)]
fn combine_tip(clv: &mut [f64], ptrans: &[f64], tips: &[State], ns: usize, first: bool) -> u64 {
    let nn = ns * ns;
    let ncat = ptrans.len() / nn;
    let mut ambiguous = 0u64;
    for (blk, &tip) in clv.chunks_exact_mut(ncat * ns).zip(tips) {
        let cells = blk.chunks_exact_mut(ns).zip(ptrans.chunks_exact(nn));
        match tip.index() {
            Some(j) => {
                for (out, pt) in cells {
                    put(out, &pt[j * ns..(j + 1) * ns], first);
                }
            }
            None => {
                ambiguous += 1;
                for (out, pt) in cells {
                    let mut sum = [0.0f64; MAX_STATES];
                    let sum = &mut sum[..ns];
                    for (j, col) in pt.chunks_exact(ns).enumerate() {
                        if tip.allows(j) {
                            for (s, &pij) in sum.iter_mut().zip(col) {
                                *s += pij;
                            }
                        }
                    }
                    put(out, sum, first);
                }
            }
        }
    }
    let resolved = tips.len() as u64 - ambiguous;
    (ncat * ns) as u64 * (resolved + ambiguous * ns as u64)
}

/// Combine an internal child with partials `cp` into `clv`. Returns cells
/// computed.
#[inline(never)]
fn combine_internal(clv: &mut [f64], ptrans: &[f64], cp: &[f64], ns: usize, first: bool) -> u64 {
    let nn = ns * ns;
    let ncat = ptrans.len() / nn;
    if ns == 4 {
        let blocks = clv
            .chunks_exact_mut(ncat * 4)
            .zip(cp.chunks_exact(ncat * 4));
        for (out_p, c_p) in blocks {
            let cells = out_p.chunks_exact_mut(4).zip(c_p.chunks_exact(4));
            for ((out, c), pt) in cells.zip(ptrans.chunks_exact(16)) {
                put(out, &dot4(pt, c), first);
            }
        }
    } else {
        // Category-major, so one `P` stays in L1 while its patterns stream.
        for (k, pt) in ptrans.chunks_exact(nn).enumerate() {
            let outs = clv.chunks_exact_mut(ns).skip(k).step_by(ncat);
            let children = cp.chunks_exact(ns).skip(k).step_by(ncat);
            for (out, c) in outs.zip(children) {
                dot_rows(out, pt, c, first);
            }
        }
    }
    (clv.len() * ns) as u64
}

/// `P · c` for four states, from the transposed `P`.
#[inline(always)]
fn dot4(pt: &[f64], c: &[f64]) -> [f64; 4] {
    let pt: &[f64; 16] = pt.try_into().expect("a 4x4 matrix");
    let c: &[f64; 4] = c.try_into().expect("a 4-state CLV block");
    let mut s = [0.0f64; 4];
    for j in 0..4 {
        for i in 0..4 {
            s[i] += pt[j * 4 + i] * c[j];
        }
    }
    s
}

/// `out (=|*=) P · c` from the transposed `P`, four output states at a
/// time: four independent sums, each over ascending `j`.
#[inline(always)]
fn dot_rows(out: &mut [f64], pt: &[f64], c: &[f64], first: bool) {
    let ns = c.len();
    let mut i = 0;
    while i + 4 <= ns {
        let mut s = [0.0f64; 4];
        for (col, &cj) in pt.chunks_exact(ns).zip(c) {
            let col = &col[i..i + 4];
            s[0] += col[0] * cj;
            s[1] += col[1] * cj;
            s[2] += col[2] * cj;
            s[3] += col[3] * cj;
        }
        put(&mut out[i..i + 4], &s, first);
        i += 4;
    }
    for i in i..ns {
        let mut s = 0.0;
        for (col, &cj) in pt.chunks_exact(ns).zip(c) {
            s += col[i] * cj;
        }
        put(&mut out[i..=i], &[s], first);
    }
}

/// Rescale each pattern whose largest partial fell below 1e-30 to a
/// maximum of 1, adding the log of the factor to its log scale.
fn rescale(clv: &mut [f64], logscale: &mut [f64], block: usize) {
    for (blk, ls) in clv.chunks_exact_mut(block).zip(logscale) {
        let mut maxv = 0.0f64;
        for &v in blk.iter() {
            maxv = maxv.max(v);
        }
        if maxv > 0.0 && maxv < 1e-30 {
            let inv = 1.0 / maxv;
            for v in blk.iter_mut() {
                *v *= inv;
            }
            *ls += maxv.ln();
        }
    }
}

/// The evaluator as it stood before the workspace kernel, verbatim: the
/// bit-for-bit reference the kernel is tested against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::linalg::Matrix;

    pub(super) fn evaluate_patterns<M: SubstModel>(
        patterns: &PatternSet,
        model: &M,
        rates: &SiteRates,
        tree: &Tree,
    ) -> Evaluation {
        Evaluator {
            patterns,
            model,
            rates,
            num_states: model.num_states(),
        }
        .run(tree)
    }

    struct Evaluator<'a, M: SubstModel> {
        patterns: &'a PatternSet,
        model: &'a M,
        rates: &'a SiteRates,
        num_states: usize,
    }

    impl<M: SubstModel> Evaluator<'_, M> {
        fn run(&self, tree: &Tree) -> Evaluation {
            assert_eq!(
                tree.num_taxa(),
                self.patterns.num_taxa(),
                "tree/alignment taxon count mismatch"
            );
            let ns = self.num_states;
            let ncat = self.rates.num_categories();
            let npat = self.patterns.num_patterns();
            let cats = self.rates.categories();
            let mut work: u64 = 0;

            // partials[node] = Some(flat [cat][pattern][state]) for internal nodes.
            let mut partials: Vec<Option<Vec<f64>>> = vec![None; tree.num_nodes()];
            let mut logscale = vec![0.0f64; npat];

            let order = tree.postorder();
            for &node in &order {
                if node == tree.root() || tree.is_leaf(node) {
                    continue;
                }
                let children = &tree.node(node).children;
                let mut acc = vec![1.0f64; ncat * npat * ns];
                for &child in children {
                    let bl = tree.branch_length(child);
                    // One transition matrix per rate category.
                    let pmats: Vec<Matrix> = cats
                        .iter()
                        .map(|&(r, _)| self.model.transition_matrix(bl * r))
                        .collect();
                    match tree.node(child).taxon {
                        Some(taxon) => {
                            work +=
                                self.combine_leaf_child(&mut acc, &pmats, taxon, ns, ncat, npat);
                        }
                        None => {
                            let cp = partials[child]
                                .as_ref()
                                .expect("postorder guarantees child computed first");
                            work += combine_internal_child(&mut acc, &pmats, cp, ns, ncat, npat);
                        }
                    }
                }
                // Per-pattern rescale across categories and states.
                for (p, ls) in logscale.iter_mut().enumerate() {
                    let mut maxv = 0.0f64;
                    for k in 0..ncat {
                        let base = (k * npat + p) * ns;
                        for s in 0..ns {
                            maxv = maxv.max(acc[base + s]);
                        }
                    }
                    if maxv > 0.0 && maxv < 1e-30 {
                        let inv = 1.0 / maxv;
                        for k in 0..ncat {
                            let base = (k * npat + p) * ns;
                            for s in 0..ns {
                                acc[base + s] *= inv;
                            }
                        }
                        *ls += maxv.ln();
                    }
                }
                partials[node] = Some(acc);
            }

            // Root: a leaf (taxon 0) with a single child.
            let root = tree.root();
            let root_taxon = tree.node(root).taxon.expect("root is a leaf");
            let child = tree.node(root).children[0];
            let bl = tree.branch_length(child);
            let pmats: Vec<Matrix> = cats
                .iter()
                .map(|&(r, _)| self.model.transition_matrix(bl * r))
                .collect();
            let freqs = self.model.frequencies();

            let mut lnl = 0.0f64;
            for (p, &ls) in logscale.iter().enumerate() {
                let root_state = self.patterns.state(p, root_taxon);
                let mut site_like = 0.0f64;
                for (k, &(_, wk)) in cats.iter().enumerate() {
                    let pm = &pmats[k];
                    let mut cat_like = 0.0f64;
                    for i in 0..ns {
                        if !root_state.allows(i) {
                            continue;
                        }
                        // Σ_j P_ij · child_j
                        let inner = match tree.node(child).taxon {
                            Some(taxon) => {
                                let cs = self.patterns.state(p, taxon);
                                let mut acc = 0.0;
                                for j in 0..ns {
                                    if cs.allows(j) {
                                        acc += pm[(i, j)];
                                    }
                                }
                                work += ns as u64;
                                acc
                            }
                            None => {
                                let cp = partials[child].as_ref().unwrap();
                                let base = (k * npat + p) * ns;
                                let mut acc = 0.0;
                                for j in 0..ns {
                                    acc += pm[(i, j)] * cp[base + j];
                                }
                                work += ns as u64;
                                acc
                            }
                        };
                        cat_like += freqs[i] * inner;
                    }
                    site_like += wk * cat_like;
                }
                if site_like <= 0.0 {
                    return Evaluation {
                        log_likelihood: f64::NEG_INFINITY,
                        work,
                    };
                }
                lnl += self.patterns.weights()[p] * (site_like.ln() + ls);
            }
            Evaluation {
                log_likelihood: lnl,
                work,
            }
        }

        /// Multiply `acc` by the contribution of a leaf child (tip states let us
        /// skip the disallowed columns of P). Returns cells computed.
        fn combine_leaf_child(
            &self,
            acc: &mut [f64],
            pmats: &[Matrix],
            taxon: usize,
            ns: usize,
            ncat: usize,
            npat: usize,
        ) -> u64 {
            let mut work = 0u64;
            for (k, pm) in pmats.iter().enumerate().take(ncat) {
                for p in 0..npat {
                    let tip: State = self.patterns.state(p, taxon);
                    let base = (k * npat + p) * ns;
                    if let Some(j) = tip.index() {
                        // Resolved tip: inner product collapses to one column.
                        for i in 0..ns {
                            acc[base + i] *= pm[(i, j)];
                        }
                        work += ns as u64;
                    } else {
                        for i in 0..ns {
                            let mut s = 0.0;
                            for j in 0..ns {
                                if tip.allows(j) {
                                    s += pm[(i, j)];
                                }
                            }
                            acc[base + i] *= s;
                        }
                        work += (ns * ns) as u64;
                    }
                }
            }
            work
        }
    }

    /// Multiply `acc` by the contribution of an internal child with partials
    /// `cp`. Returns cells computed.
    fn combine_internal_child(
        acc: &mut [f64],
        pmats: &[Matrix],
        cp: &[f64],
        ns: usize,
        ncat: usize,
        npat: usize,
    ) -> u64 {
        for (k, pm) in pmats.iter().enumerate().take(ncat) {
            for p in 0..npat {
                let base = (k * npat + p) * ns;
                for i in 0..ns {
                    let mut s = 0.0;
                    for j in 0..ns {
                        s += pm[(i, j)] * cp[base + j];
                    }
                    acc[base + i] *= s;
                }
            }
        }
        (ncat * npat * ns * ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::alphabet::DataType;
    use crate::models::{aminoacid, codon, nucleotide};
    use crate::sequence::Sequence;

    fn two_taxon_tree(t1: f64, t2: f64) -> Tree {
        let mut tree = Tree::caterpillar(2, 0.0);
        let leaf1 = tree.leaf_node(1);
        tree.set_branch_length(leaf1, t1 + t2);
        tree
    }

    fn nuc_aln(rows: &[(&str, &str)]) -> Alignment {
        Alignment::new(
            rows.iter()
                .map(|(n, s)| Sequence::from_text(*n, DataType::Nucleotide, s).unwrap())
                .collect(),
        )
        .unwrap()
    }

    /// `tree` scored on `aln`'s patterns under `model` and `rates`.
    fn score(
        aln: &Alignment,
        model: &ReversibleModel,
        rates: SiteRates,
        tree: &Tree,
    ) -> Evaluation {
        evaluate_patterns(&PatternSet::compress(aln), model, &rates, tree)
    }

    /// Two-taxon JC69 likelihood has a closed form:
    /// match sites:    L = 0.25 · (0.25 + 0.75 e^{-4t/3})
    /// mismatch sites: L = 0.25 · (0.25 − 0.25 e^{-4t/3})
    #[test]
    fn two_taxon_jc_closed_form() {
        let t = 0.35;
        let tree = two_taxon_tree(t, 0.0);
        let aln = nuc_aln(&[("a", "AAC"), ("b", "AGC")]); // 2 matches, 1 mismatch
        let model = nucleotide::jc69();
        let lnl = score(&aln, &model, SiteRates::uniform(), &tree).log_likelihood;
        let e = (-4.0 * t / 3.0f64).exp();
        let match_l = 0.25 * (0.25 + 0.75 * e);
        let mismatch_l = 0.25 * (0.25 - 0.25 * e);
        let expected = 2.0 * match_l.ln() + mismatch_l.ln();
        assert!((lnl - expected).abs() < 1e-10, "{lnl} vs {expected}");
    }

    /// The pulley principle: only the path length between the two taxa
    /// matters, not how it is split.
    #[test]
    fn two_taxon_path_length_invariance() {
        let aln = nuc_aln(&[("a", "ACGTAC"), ("b", "ACGTAA")]);
        let model = nucleotide::hky85(2.0, [0.3, 0.2, 0.2, 0.3]);
        let l1 = score(
            &aln,
            &model,
            SiteRates::uniform(),
            &two_taxon_tree(0.3, 0.0),
        );
        let l2 = score(
            &aln,
            &model,
            SiteRates::uniform(),
            &two_taxon_tree(0.1, 0.2),
        );
        let (l1, l2) = (l1.log_likelihood, l2.log_likelihood);
        assert!((l1 - l2).abs() < 1e-10);
    }

    #[test]
    fn all_missing_column_contributes_zero() {
        let model = nucleotide::jc69();
        let with_gap = nuc_aln(&[("a", "AC-"), ("b", "AG-")]);
        let without = nuc_aln(&[("a", "AC"), ("b", "AG")]);
        let tree = two_taxon_tree(0.2, 0.0);
        let lg = score(&with_gap, &model, SiteRates::uniform(), &tree).log_likelihood;
        let lw = score(&without, &model, SiteRates::uniform(), &tree).log_likelihood;
        assert!((lg - lw).abs() < 1e-10, "all-gap column must have L = 1");
    }

    #[test]
    fn gamma_one_category_equals_uniform() {
        let mut rng = simkit::SimRng::new(12);
        let tree = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let lu = score(&aln, &model, SiteRates::uniform(), &tree).log_likelihood;
        let lg = score(&aln, &model, SiteRates::gamma(1, 0.5), &tree).log_likelihood;
        assert!((lu - lg).abs() < 1e-10);
    }

    #[test]
    fn rate_heterogeneity_changes_likelihood() {
        let aln = nuc_aln(&[("a", "ACGTACGTAC"), ("b", "ACGAACGAAC")]);
        let model = nucleotide::jc69();
        let tree = two_taxon_tree(0.3, 0.0);
        let lu = score(&aln, &model, SiteRates::uniform(), &tree).log_likelihood;
        let lg = score(&aln, &model, SiteRates::gamma(4, 0.3), &tree).log_likelihood;
        assert!(
            (lu - lg).abs() > 1e-6,
            "Γ(α=0.3) should move the likelihood"
        );
    }

    #[test]
    fn work_scales_with_rate_categories() {
        let mut rng = simkit::SimRng::new(13);
        let tree = Tree::random_topology(8, &mut rng);
        let model = nucleotide::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 300, &mut rng);
        let e1 = score(&aln, &model, SiteRates::uniform(), &tree);
        let e4 = score(&aln, &model, SiteRates::gamma(4, 0.5), &tree);
        let ratio = e4.work as f64 / e1.work as f64;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "work ratio {ratio}, expected ≈ 4"
        );
    }

    #[test]
    fn work_scales_quadratically_with_states() {
        // Same taxa/sites; amino acid (20 states) vs nucleotide (4 states):
        // internal-edge work ratio approaches (20/4)² = 25 (leaf edges are
        // linear in states, so the overall ratio sits between 5 and 25).
        let mut rng = simkit::SimRng::new(14);
        let tree = Tree::random_topology(10, &mut rng);
        let nuc = nucleotide::jc69();
        let aa = aminoacid::poisson();
        let aln_n = crate::simulate::Simulator::new(&nuc, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let aln_a = crate::simulate::Simulator::new(&aa, SiteRates::uniform())
            .simulate(&tree, 100, &mut rng);
        let wn = score(&aln_n, &nuc, SiteRates::uniform(), &tree).work;
        let wa = score(&aln_a, &aa, SiteRates::uniform(), &tree).work;
        // Pattern counts differ between the two simulated alignments; compare
        // per-pattern work.
        let pn = PatternSet::compress(&aln_n).num_patterns() as f64;
        let pa = PatternSet::compress(&aln_a).num_patterns() as f64;
        let ratio = (wa as f64 / pa) / (wn as f64 / pn);
        assert!(
            ratio > 5.0,
            "20-state work should dwarf 4-state: ratio {ratio}"
        );
    }

    /// Invariant-sites mixture has a closed form on two taxa: the rate-0
    /// category contributes π_i only to match sites (P(0) = I), the other
    /// category is plain JC at the scaled rate.
    #[test]
    fn invariant_sites_closed_form() {
        let pinv = 0.3;
        let t = 0.4;
        let tree = two_taxon_tree(t, 0.0);
        let aln = nuc_aln(&[("a", "AG"), ("b", "AC")]); // one match, one mismatch
        let model = nucleotide::jc69();
        let lnl = score(&aln, &model, SiteRates::invariant(pinv), &tree).log_likelihood;
        let e = (-4.0 * (t / (1.0 - pinv)) / 3.0f64).exp();
        let match_l = pinv * 0.25 + (1.0 - pinv) * 0.25 * (0.25 + 0.75 * e);
        let mismatch_l = (1.0 - pinv) * 0.25 * (0.25 - 0.25 * e);
        let expected = match_l.ln() + mismatch_l.ln();
        assert!((lnl - expected).abs() < 1e-10, "{lnl} vs {expected}");
    }

    #[test]
    fn work_counter_is_deterministic_across_calls() {
        let mut rng = simkit::SimRng::new(16);
        let tree = Tree::random_topology(9, &mut rng);
        let model = nucleotide::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 120, &mut rng);
        let a = score(&aln, &model, SiteRates::gamma(4, 0.7), &tree);
        let b = score(&aln, &model, SiteRates::gamma(4, 0.7), &tree);
        assert_eq!(a.work, b.work);
        assert_eq!(a.log_likelihood, b.log_likelihood);
    }

    #[test]
    fn codon_engine_runs() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Codon, "ATGGCTAAAGCT").unwrap(),
            Sequence::from_text("b", DataType::Codon, "ATGGCGAAAGCT").unwrap(),
        ])
        .unwrap();
        let model = codon::goldman_yang(2.0, 0.5);
        let lnl = score(
            &aln,
            &model,
            SiteRates::uniform(),
            &two_taxon_tree(0.1, 0.0),
        )
        .log_likelihood;
        assert!(lnl.is_finite() && lnl < 0.0);
    }

    #[test]
    fn deep_tree_does_not_underflow() {
        // Long caterpillar with sizeable branch lengths: raw likelihoods
        // underflow f64 without scaling.
        let mut rng = simkit::SimRng::new(15);
        let tree = Tree::caterpillar(60, 0.4);
        let model = nucleotide::jc69();
        let aln = crate::simulate::Simulator::new(&model, SiteRates::uniform())
            .simulate(&tree, 50, &mut rng);
        let lnl = score(&aln, &model, SiteRates::uniform(), &tree).log_likelihood;
        assert!(lnl.is_finite(), "scaling must prevent underflow, got {lnl}");
        assert!(lnl < -100.0);
    }

    // -- the kernel against the reference evaluator ------------------------

    /// `aln` with IUPAC-style ambiguity (random two- and three-state masks),
    /// scattered gaps and two all-gap columns.
    fn with_ambiguity(aln: &Alignment, rng: &mut simkit::SimRng) -> Alignment {
        let dt = aln.data_type();
        let ns = dt.num_states();
        let gap_cols = [rng.index(aln.num_sites()), rng.index(aln.num_sites())];
        let seqs = aln
            .sequences()
            .iter()
            .map(|seq| {
                let states = seq
                    .states()
                    .iter()
                    .enumerate()
                    .map(|(site, &st)| {
                        if gap_cols.contains(&site) || rng.chance(0.04) {
                            State::missing(dt)
                        } else if rng.chance(0.06) {
                            let extra = (0..1 + rng.index(2))
                                .fold(0, |m, _| m | State::known(rng.index(ns)).0);
                            State(st.0 | extra)
                        } else {
                            st
                        }
                    })
                    .collect();
                Sequence::from_states(seq.name(), dt, states)
            })
            .collect();
        Alignment::new(seqs).unwrap()
    }

    /// Random branch lengths over five orders of magnitude, zero included.
    fn scramble_branches(tree: &mut Tree, rng: &mut simkit::SimRng) {
        for node in tree.edge_nodes() {
            let bl = match rng.index(6) {
                0 => 0.0,
                1 => rng.range_f64(1.0, 3.0),
                _ => rng.range_f64(1e-4, 0.5),
            };
            tree.set_branch_length(node, bl);
        }
    }

    /// Assert the kernel matches the reference evaluator bit for bit on
    /// `tree`, in a fresh workspace and in one left dirty by `other`.
    fn assert_matches_reference(
        patterns: &PatternSet,
        model: &ReversibleModel,
        rates: &SiteRates,
        tree: &Tree,
        other: &Tree,
    ) {
        let want = reference::evaluate_patterns(patterns, model, rates, tree);
        let fresh = evaluate_patterns(patterns, model, rates, tree);
        let mut ws = Workspace::new();
        ws.evaluate(patterns, model, rates, other);
        let dirty = ws.evaluate(patterns, model, rates, tree);
        for got in [fresh, dirty] {
            assert_eq!(
                got.log_likelihood.to_bits(),
                want.log_likelihood.to_bits(),
                "{} vs reference {}",
                got.log_likelihood,
                want.log_likelihood
            );
            assert_eq!(got.work, want.work);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(60))]

        /// Random trees of 2–40 taxa over all three data types and four
        /// rate mixtures, with ambiguity codes and all-gap columns.
        #[test]
        fn kernel_matches_reference_bit_for_bit(
            n in 2usize..41,
            data in 0usize..3,
            mix in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = simkit::SimRng::new(seed);
            let mut tree = Tree::random_topology(n, &mut rng);
            let mut other = Tree::random_topology(n, &mut rng);
            scramble_branches(&mut tree, &mut rng);
            scramble_branches(&mut other, &mut rng);
            let alpha = rng.range_f64(0.1, 3.0);
            let pinv = rng.range_f64(0.01, 0.6);
            let rates = match mix {
                0 => SiteRates::uniform(),
                1 => SiteRates::gamma(4, alpha),
                2 => SiteRates::gamma_inv(4, alpha, pinv),
                _ => SiteRates::invariant(pinv),
            };
            match data {
                0 => {
                    let mut r = [0.0; 6];
                    r.iter_mut().for_each(|x| *x = rng.range_f64(0.2, 5.0));
                    let f: Vec<f64> = (0..4).map(|_| rng.range_f64(0.1, 1.0)).collect();
                    let total: f64 = f.iter().sum();
                    let model = nucleotide::gtr(r, [f[0] / total, f[1] / total, f[2] / total, f[3] / total]);
                    let aln = crate::simulate::Simulator::new(&model, SiteRates::gamma(4, 0.5))
                        .simulate(&tree, 120, &mut rng);
                    let patterns = PatternSet::compress(&with_ambiguity(&aln, &mut rng));
                    assert_matches_reference(&patterns, &model, &rates, &tree, &other);
                }
                1 => {
                    let model = aminoacid::empirical();
                    let aln = crate::simulate::Simulator::new(&model, SiteRates::gamma(4, 0.5))
                        .simulate(&tree, 50, &mut rng);
                    let patterns = PatternSet::compress(&with_ambiguity(&aln, &mut rng));
                    assert_matches_reference(&patterns, &model, &rates, &tree, &other);
                }
                _ => {
                    let model = codon::goldman_yang(rng.range_f64(1.0, 5.0), rng.range_f64(0.1, 2.0));
                    let aln = crate::simulate::Simulator::new(&model, SiteRates::gamma(4, 0.5))
                        .simulate(&tree, 20, &mut rng);
                    let patterns = PatternSet::compress(&with_ambiguity(&aln, &mut rng));
                    assert_matches_reference(&patterns, &model, &rates, &tree, &other);
                }
            }
        }
    }

    /// A 60-taxon caterpillar with long branches underflows without
    /// rescaling; the kernel must rescale the same patterns by the same
    /// factors, in the same order, as the reference.
    #[test]
    fn rescaling_caterpillar_matches_reference() {
        let mut rng = simkit::SimRng::new(17);
        let tree = Tree::caterpillar(60, 0.4);
        let model = nucleotide::hky85(3.0, [0.3, 0.2, 0.2, 0.3]);
        let aln = crate::simulate::Simulator::new(&model, SiteRates::gamma(4, 0.5))
            .simulate(&tree, 80, &mut rng);
        let patterns = PatternSet::compress(&with_ambiguity(&aln, &mut rng));
        let other = Tree::random_topology(60, &mut rng);
        let rates = SiteRates::gamma_inv(4, 0.5, 0.2);
        assert_matches_reference(&patterns, &model, &rates, &tree, &other);
        let mut ws = Workspace::new();
        let ev = ws.evaluate(&patterns, &model, &rates, &tree);
        assert!(ev.log_likelihood.is_finite());
        let rescaled = ws.logscale.iter().filter(|&&l| l != 0.0).count();
        assert!(rescaled > 0, "no pattern was rescaled");
    }

    /// Zero-length branches under K80 make a mismatch site impossible: the
    /// root term exits at `-inf` after the second of three patterns, having
    /// counted 32 of the 36 cells a full evaluation counts.
    #[test]
    fn impossible_site_exits_early_with_partial_work() {
        let aln = nuc_aln(&[("a", "ACG"), ("b", "AAG"), ("c", "AAG")]);
        let patterns = PatternSet::compress(&aln);
        let model = nucleotide::k80(2.0);
        let rates = SiteRates::uniform();
        let tree = Tree::caterpillar(3, 0.0);
        let want = reference::evaluate_patterns(&patterns, &model, &rates, &tree);
        let got = evaluate_patterns(&patterns, &model, &rates, &tree);
        assert_eq!(want.log_likelihood, f64::NEG_INFINITY);
        assert_eq!(got.log_likelihood, f64::NEG_INFINITY);
        assert_eq!((got.work, want.work), (32, 32));
        let possible = nuc_aln(&[("a", "AAG"), ("b", "AAG"), ("c", "AAG")]);
        let full = evaluate_patterns(&PatternSet::compress(&possible), &model, &rates, &tree);
        assert!(full.log_likelihood.is_finite());
        assert_eq!(
            full.work, 24,
            "two patterns: 2 tips × 2 × 4 + 2 × 4 at the root"
        );
    }

    #[test]
    #[should_panic(expected = "taxon count mismatch")]
    fn mismatched_tree_rejected() {
        let aln = nuc_aln(&[("a", "AC"), ("b", "AC")]);
        let model = nucleotide::jc69();
        let tree = Tree::caterpillar(3, 0.1);
        let _ = score(&aln, &model, SiteRates::uniform(), &tree);
    }

    /// Amino-acid patterns under a nucleotide model are refused before any
    /// state is read.
    #[test]
    #[should_panic(expected = "alignment/model data type mismatch")]
    fn patterns_of_another_data_type_rejected() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::AminoAcid, "ARND").unwrap(),
            Sequence::from_text("b", DataType::AminoAcid, "ARNE").unwrap(),
        ])
        .unwrap();
        let patterns = PatternSet::compress(&aln);
        let mut ws = Workspace::new();
        let tree = two_taxon_tree(0.1, 0.0);
        let _ = ws.evaluate(&patterns, &nucleotide::jc69(), &SiteRates::uniform(), &tree);
    }
}
