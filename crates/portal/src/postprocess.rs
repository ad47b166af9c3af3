//! Result post-processing: the single downloadable archive.
//!
//! "After all the job replicates are finished, the system automatically
//! runs some post-processing on the results and makes them available in a
//! single zip file for the user to download" (paper §III.A). The archive
//! here is an in-memory file tree: the best tree over all replicates, a
//! per-replicate score table, and — for bootstrap submissions — the support
//! values mapped onto the best tree.

use garli::search::SearchResult;
use phylo::bootstrap::support_on_tree;
use phylo::newick::to_newick;
use std::fmt::Write as _;

/// One file in the archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveFile {
    /// File name within the archive.
    pub name: String,
    /// Text contents.
    pub contents: String,
}

/// The assembled results archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsArchive {
    /// Files, in deterministic order.
    pub files: Vec<ArchiveFile>,
}

impl ResultsArchive {
    /// Look up a file by name.
    pub fn file(&self, name: &str) -> Option<&ArchiveFile> {
        self.files.iter().find(|f| f.name == name)
    }
}

/// Build the archive from the replicate results.
///
/// # Panics
/// Panics on an empty result set or if `taxon_names` is shorter than the
/// trees' taxa.
pub fn build_archive(
    results: &[SearchResult],
    taxon_names: &[&str],
    is_bootstrap: bool,
) -> ResultsArchive {
    assert!(!results.is_empty(), "no results to post-process");
    let summary = garli::replicate::summarize(results);
    let best = &results[summary.best_index];

    let mut files = Vec::new();
    files.push(ArchiveFile {
        name: "best_tree.nwk".into(),
        contents: to_newick(&best.best_tree, taxon_names),
    });

    // Per-replicate score table.
    let mut table = String::from("replicate,log_likelihood,generations,reference_seconds\n");
    for (i, r) in results.iter().enumerate() {
        writeln!(
            table,
            "{},{:.4},{},{:.2}",
            i,
            r.best_log_likelihood,
            r.generations,
            r.reference_seconds()
        )
        .unwrap();
    }
    files.push(ArchiveFile {
        name: "replicates.csv".into(),
        contents: table,
    });

    if is_bootstrap {
        let trees: Vec<phylo::tree::Tree> = results.iter().map(|r| r.best_tree.clone()).collect();
        // The publishable summary: the greedy consensus with support values
        // as branch annotations (encoded as branch lengths; see
        // `phylo::consensus`).
        let consensus = phylo::consensus::greedy_consensus(&trees);
        files.push(ArchiveFile {
            name: "consensus_tree.nwk".into(),
            contents: to_newick(&consensus.tree, taxon_names),
        });
        let rows = support_on_tree(&best.best_tree, &trees);
        let mut support = String::from("split_size,support\n");
        let mut sorted: Vec<(usize, f64)> = rows
            .iter()
            .map(|(s, v)| (s.iter().map(|w| w.count_ones() as usize).sum(), *v))
            .collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for (size, v) in sorted {
            writeln!(support, "{size},{:.3}", v).unwrap();
        }
        files.push(ArchiveFile {
            name: "bootstrap_support.csv".into(),
            contents: support,
        });
    }

    let mut summary_txt = String::new();
    writeln!(summary_txt, "replicates: {}", results.len()).unwrap();
    writeln!(summary_txt, "best replicate: {}", summary.best_index).unwrap();
    writeln!(summary_txt, "best lnL: {:.4}", summary.best_log_likelihood).unwrap();
    writeln!(
        summary_txt,
        "total compute: {:.1} reference-CPU-seconds",
        summary.total_work_cells as f64 / garli::work::REFERENCE_CELLS_PER_SEC
    )
    .unwrap();
    files.push(ArchiveFile {
        name: "summary.txt".into(),
        contents: summary_txt,
    });

    ResultsArchive { files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garli::config::GarliConfig;
    use garli::replicate::run_replicates;
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;
    use simkit::SimRng;

    fn results(bootstrap: bool) -> (Vec<SearchResult>, Vec<String>) {
        let mut rng = SimRng::new(161);
        let tree = Tree::random_topology(5, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 200, &mut rng);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 5;
        config.max_generations = 20;
        if bootstrap {
            config.bootstrap_replicates = 3;
        } else {
            config.search_replicates = 3;
        }
        let names: Vec<String> = aln.taxon_names().iter().map(|s| s.to_string()).collect();
        (
            run_replicates(&config, &aln, &SimRng::new(162)).unwrap(),
            names,
        )
    }

    #[test]
    fn archive_contains_expected_files() {
        let (rs, names) = results(false);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = build_archive(&rs, &refs, false);
        assert!(a.file("best_tree.nwk").is_some());
        assert!(a.file("replicates.csv").is_some());
        assert!(a.file("summary.txt").is_some());
        assert!(a.file("bootstrap_support.csv").is_none());
        // Tree parses back.
        let nwk = &a.file("best_tree.nwk").unwrap().contents;
        assert!(phylo::newick::parse_newick(nwk, &refs).is_ok());
    }

    #[test]
    fn replicate_table_has_all_rows() {
        let (rs, names) = results(false);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = build_archive(&rs, &refs, false);
        let csv = &a.file("replicates.csv").unwrap().contents;
        assert_eq!(csv.lines().count(), 1 + rs.len());
    }

    #[test]
    fn bootstrap_archive_adds_support() {
        let (rs, names) = results(true);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = build_archive(&rs, &refs, true);
        let support = a.file("bootstrap_support.csv").expect("support file");
        for line in support.contents.lines().skip(1) {
            let v: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn bootstrap_archive_includes_consensus_tree() {
        let (rs, names) = results(true);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = build_archive(&rs, &refs, true);
        let consensus = a.file("consensus_tree.nwk").expect("consensus file");
        let t = phylo::newick::parse_newick(&consensus.contents, &refs).unwrap();
        assert_eq!(t.num_taxa(), refs.len());
        // Plain search archives do not carry one.
        let (rs2, names2) = results(false);
        let refs2: Vec<&str> = names2.iter().map(|s| s.as_str()).collect();
        assert!(build_archive(&rs2, &refs2, false)
            .file("consensus_tree.nwk")
            .is_none());
    }

    #[test]
    #[should_panic(expected = "no results")]
    fn empty_results_rejected() {
        let _ = build_archive(&[], &[], false);
    }
}
