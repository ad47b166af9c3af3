//! Sequence simulation along a tree.
//!
//! Draws root states from the model's stationary distribution and evolves
//! them down every branch with the model's transition matrices, including
//! among-site rate heterogeneity (each site draws a rate category). Used to
//! fabricate the synthetic-but-realistic GARLI workloads that train the
//! runtime model (the paper trained on ~150 real user jobs we do not have).

use crate::alignment::Alignment;
use crate::alphabet::State;
use crate::models::{ReversibleModel, SiteRates, SubstModel};
use crate::sequence::Sequence;
use crate::tree::Tree;
use simkit::SimRng;

/// A sequence simulator bound to a model and rate mixture.
pub struct Simulator<'a> {
    model: &'a ReversibleModel,
    rates: SiteRates,
}

impl<'a> Simulator<'a> {
    /// Create a simulator.
    pub fn new(model: &'a ReversibleModel, rates: SiteRates) -> Self {
        Simulator { model, rates }
    }

    /// Simulate `num_sites` characters for every taxon in `tree`.
    ///
    /// Taxa are named `t0, t1, …` in taxon order.
    ///
    /// # Panics
    /// Panics if `num_sites == 0`.
    pub fn simulate(&self, tree: &Tree, num_sites: usize, rng: &mut SimRng) -> Alignment {
        assert!(num_sites > 0, "need at least one site");
        let ns = self.model.num_states();
        let freqs = self.model.frequencies();
        let cats = self.rates.categories();

        // Per-site rate draw.
        let weights: Vec<f64> = cats.iter().map(|c| c.1).collect();
        let site_rates: Vec<f64> = (0..num_sites)
            .map(|_| cats[rng.weighted_index(&weights)].0)
            .collect();

        // states[node][site]
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); tree.num_nodes()];
        let root = tree.root();
        states[root] = (0..num_sites).map(|_| rng.weighted_index(freqs)).collect();

        // Preorder: parents before children (reverse postorder works).
        let mut order = tree.postorder();
        order.reverse();
        for &node in &order {
            if node == root {
                continue;
            }
            let parent = tree.node(node).parent.expect("non-root has parent");
            let bl = tree.branch_length(node);
            // Cache transition matrices per distinct rate (few categories).
            let pmats: Vec<crate::linalg::Matrix> = cats
                .iter()
                .map(|&(r, _)| self.model.transition_matrix(bl * r))
                .collect();
            let rate_index: Vec<usize> = site_rates
                .iter()
                .map(|r| {
                    cats.iter()
                        .position(|c| c.0 == *r)
                        .expect("site rate drawn from categories")
                })
                .collect();
            let parent_states = states[parent].clone();
            let mut my_states = Vec::with_capacity(num_sites);
            for (site, &ps) in parent_states.iter().enumerate() {
                let pm = &pmats[rate_index[site]];
                let row: Vec<f64> = (0..ns).map(|j| pm[(ps, j)]).collect();
                my_states.push(rng.weighted_index(&row));
            }
            states[node] = my_states;
        }

        // Collect leaf sequences in taxon order.
        let mut seqs = Vec::with_capacity(tree.num_taxa());
        for taxon in 0..tree.num_taxa() {
            let node = tree.leaf_node(taxon);
            let encoded: Vec<State> = states[node].iter().map(|&s| State::known(s)).collect();
            seqs.push(Sequence::from_states(
                format!("t{taxon}"),
                self.model.data_type(),
                encoded,
            ));
        }
        Alignment::new(seqs).expect("simulated alignment is always valid")
    }

    /// Simulate and then knock out a fraction of characters to missing —
    /// mirrors the incomplete data sets GARLI is adapted for.
    pub fn simulate_with_missing(
        &self,
        tree: &Tree,
        num_sites: usize,
        missing_fraction: f64,
        rng: &mut SimRng,
    ) -> Alignment {
        let aln = self.simulate(tree, num_sites, rng);
        if missing_fraction <= 0.0 {
            return aln;
        }
        let dt = self.model.data_type();
        let seqs = aln
            .sequences()
            .iter()
            .map(|s| {
                let states: Vec<State> = s
                    .states()
                    .iter()
                    .map(|&st| {
                        if rng.chance(missing_fraction) {
                            State::missing(dt)
                        } else {
                            st
                        }
                    })
                    .collect();
                Sequence::from_states(s.name().to_string(), dt, states)
            })
            .collect();
        Alignment::new(seqs).expect("knockout preserves shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::evaluate_patterns;
    use crate::models::nucleotide;
    use crate::patterns::PatternSet;

    #[test]
    fn shape_and_names() {
        let mut rng = SimRng::new(21);
        let tree = Tree::random_topology(7, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 123, &mut rng);
        assert_eq!(aln.num_taxa(), 7);
        assert_eq!(aln.num_sites(), 123);
        assert_eq!(aln.taxon_names()[3], "t3");
    }

    #[test]
    fn base_composition_tracks_stationary_frequencies() {
        let mut rng = SimRng::new(22);
        let freqs = [0.5, 0.2, 0.2, 0.1];
        let model = nucleotide::hky85(2.0, freqs);
        let tree = Tree::random_topology(4, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 20_000, &mut rng);
        let mut counts = [0usize; 4];
        for s in aln.sequences() {
            for st in s.states() {
                counts[st.index().unwrap()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let obs = c as f64 / total as f64;
            assert!(
                (obs - freqs[i]).abs() < 0.02,
                "state {i}: {obs} vs {}",
                freqs[i]
            );
        }
    }

    #[test]
    fn short_branches_give_similar_sequences() {
        let mut rng = SimRng::new(23);
        let model = nucleotide::jc69();
        let tree = Tree::caterpillar(4, 0.001);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 500, &mut rng);
        // With nearly zero branch lengths all sequences should be ~identical.
        let a = aln.sequences()[0].states();
        let b = aln.sequences()[3].states();
        let diff = a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert!(diff < 10, "{diff} differences on near-zero branches");
    }

    #[test]
    fn true_tree_scores_better_than_random_tree() {
        let mut rng = SimRng::new(24);
        let model = nucleotide::jc69();
        let truth = Tree::random_topology(8, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 800, &mut rng);
        let patterns = PatternSet::compress(&aln);
        let lnl = |tree: &Tree| {
            evaluate_patterns(&patterns, &model, &SiteRates::uniform(), tree).log_likelihood
        };
        let l_true = lnl(&truth);
        // Compare against clearly different random topologies.
        let mut worse = 0;
        for i in 0..5 {
            let mut r2 = SimRng::new(100 + i);
            let other = Tree::random_topology(8, &mut r2);
            if other.same_topology(&truth) {
                continue;
            }
            if lnl(&other) < l_true {
                worse += 1;
            }
        }
        assert!(
            worse >= 4,
            "true tree should usually dominate, got {worse}/5"
        );
    }

    #[test]
    fn missing_knockout_fraction() {
        let mut rng = SimRng::new(25);
        let model = nucleotide::jc69();
        let tree = Tree::random_topology(5, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform())
            .simulate_with_missing(&tree, 2000, 0.3, &mut rng);
        let f = aln.missing_fraction();
        assert!((f - 0.3).abs() < 0.03, "missing fraction {f}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let model = nucleotide::jc69();
        let mk = || {
            let mut rng = SimRng::new(77);
            let tree = Tree::random_topology(5, &mut rng);
            Simulator::new(&model, SiteRates::gamma(4, 0.5)).simulate(&tree, 64, &mut rng)
        };
        assert_eq!(mk(), mk());
    }
}
