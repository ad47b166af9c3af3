//! Whole-search pins: FNV-64 of the serialized `SearchResult` of five
//! searches, captured before the likelihood kernel, the P(t) assembly and
//! the search's model store were rewritten for speed. Each search runs
//! hundreds of likelihood evaluations through mutations of every kind, so
//! a single changed bit in a log-likelihood, a `work` count or a rebuilt
//! model moves the best tree, the generation count or the work total, and
//! with them the hash.

use garli::config::{GarliConfig, RateHetKind, StartingTree, StateFrequencies};
use garli::replicate::run_replicate;
use garli::search::{Search, SearchResult};
use phylo::alignment::Alignment;
use phylo::alphabet::{DataType, State};
use phylo::models::nucleotide::RateMatrix;
use phylo::models::{aminoacid, codon, nucleotide, ReversibleModel, SiteRates};
use phylo::sequence::Sequence;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use simkit::snapshot::checksum as fnv1a;
use simkit::SimRng;

fn fingerprint(result: &SearchResult) -> u64 {
    fnv1a(
        serde_json::to_string(result)
            .expect("a search result serializes")
            .as_bytes(),
    )
}

fn simulate(
    model: &ReversibleModel,
    taxa: usize,
    sites: usize,
    missing: f64,
    seed: u64,
) -> Alignment {
    let mut rng = SimRng::new(seed);
    let truth = Tree::random_topology(taxa, &mut rng);
    Simulator::new(model, SiteRates::gamma(4, 0.6))
        .simulate_with_missing(&truth, sites, missing, &mut rng)
}

/// Nucleotide data with gaps plus IUPAC R (A|G) and Y (C|T) codes sprinkled
/// over the taxa, so the search scores ambiguous tips on every edge.
fn nucleotide_with_ambiguity(seed: u64) -> Alignment {
    let model = nucleotide::gtr([1.1, 3.2, 0.8, 1.3, 2.9, 1.0], [0.32, 0.18, 0.21, 0.29]);
    let aln = simulate(&model, 9, 240, 0.04, seed);
    let seqs = aln
        .sequences()
        .iter()
        .enumerate()
        .map(|(t, s)| {
            let states = s
                .states()
                .iter()
                .enumerate()
                .map(|(site, &st)| match (site + 3 * t) % 29 {
                    0 => State(0b0101),
                    7 => State(0b1010),
                    _ => st,
                })
                .collect();
            Sequence::from_states(s.name(), DataType::Nucleotide, states)
        })
        .collect();
    Alignment::new(seqs).expect("same shape as the simulated alignment")
}

fn run(config: GarliConfig, aln: &Alignment, seed: u64) -> SearchResult {
    let mut rng = SimRng::new(seed);
    Search::new(config, aln)
        .expect("valid configuration")
        .run(&mut rng)
}

#[test]
fn nucleotide_gtr_gamma_inv_estimated_frequencies_matches_its_pin() {
    let aln = nucleotide_with_ambiguity(501);
    let config = GarliConfig {
        rate_matrix: RateMatrix::Gtr,
        state_frequencies: StateFrequencies::Estimate,
        rate_het: RateHetKind::GammaInv,
        invariant_sites: true,
        genthresh_for_topo_term: 25,
        max_generations: 160,
        ..GarliConfig::default()
    };
    let result = run(config, &aln, 502);
    assert!(result.mutation_counts[3] > 0, "model moves were tried");
    assert_eq!(fingerprint(&result), 3341607696537697161);
}

#[test]
fn amino_acid_gamma_matches_its_pin() {
    let aln = simulate(&aminoacid::empirical(), 7, 90, 0.02, 511);
    let config = GarliConfig {
        data_type: DataType::AminoAcid,
        state_frequencies: StateFrequencies::Empirical,
        rate_het: RateHetKind::Gamma,
        genthresh_for_topo_term: 20,
        max_generations: 120,
        ..GarliConfig::default()
    };
    let result = run(config, &aln, 512);
    assert_eq!(fingerprint(&result), 5264566510929085306);
}

#[test]
fn codon_gamma_with_kappa_omega_moves_matches_its_pin() {
    let aln = simulate(&codon::goldman_yang(2.5, 0.4), 6, 36, 0.0, 521);
    let config = GarliConfig {
        data_type: DataType::Codon,
        state_frequencies: StateFrequencies::Equal,
        rate_het: RateHetKind::Gamma,
        genthresh_for_topo_term: 15,
        max_generations: 80,
        ..GarliConfig::default()
    };
    let result = run(config, &aln, 522);
    assert!(result.mutation_counts[3] > 0, "κ/ω/α moves were tried");
    assert_eq!(fingerprint(&result), 16625733090535603085);
}

#[test]
fn random_starting_tree_matches_its_pin() {
    let model = nucleotide::hky85(3.0, [0.3, 0.2, 0.2, 0.3]);
    let aln = simulate(&model, 10, 200, 0.0, 531);
    let config = GarliConfig {
        rate_matrix: RateMatrix::Hky85,
        rate_het: RateHetKind::None,
        num_rate_cats: 1,
        starting_tree: StartingTree::Random,
        attachments_per_taxon: 60,
        genthresh_for_topo_term: 25,
        max_generations: 150,
        ..GarliConfig::default()
    };
    let result = run(config, &aln, 532);
    assert_eq!(fingerprint(&result), 17671439066165193055);
}

#[test]
fn bootstrap_replicate_matches_its_pin() {
    let model = nucleotide::k80(2.0);
    let aln = simulate(&model, 8, 180, 0.0, 541);
    let config = GarliConfig {
        rate_matrix: RateMatrix::K80,
        state_frequencies: StateFrequencies::Equal,
        rate_het: RateHetKind::Gamma,
        bootstrap_replicates: 3,
        genthresh_for_topo_term: 20,
        max_generations: 120,
        ..GarliConfig::default()
    };
    let result = run_replicate(&config, &aln, &SimRng::new(542), 1).expect("valid configuration");
    assert_eq!(fingerprint(&result), 4619425729954809687);
}
