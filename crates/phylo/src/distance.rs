//! Pairwise distances and neighbor joining.
//!
//! GARLI seeds its genetic-algorithm population from fast distance-based
//! starting trees; we do the same with Jukes–Cantor-corrected distances and
//! the classic Saitou–Nei neighbor-joining algorithm.

use crate::alignment::Alignment;
use crate::tree::Tree;

/// Proportion of differing resolved characters between two taxa (sites where
/// either is unresolved are skipped). Returns 0 when no comparable sites.
pub fn p_distance(alignment: &Alignment, a: usize, b: usize) -> f64 {
    let sa = alignment.sequences()[a].states();
    let sb = alignment.sequences()[b].states();
    let mut comparable = 0usize;
    let mut diff = 0usize;
    for (x, y) in sa.iter().zip(sb) {
        if let (Some(i), Some(j)) = (x.index(), y.index()) {
            comparable += 1;
            if i != j {
                diff += 1;
            }
        }
    }
    if comparable == 0 {
        0.0
    } else {
        diff as f64 / comparable as f64
    }
}

/// Jukes–Cantor-style distance correction generalized to `k` states:
/// `d = -((k-1)/k) ln(1 - k p/(k-1))`. Saturated pairs (where the log's
/// argument is non-positive) are clamped to a large finite distance.
pub fn jc_distance(alignment: &Alignment, a: usize, b: usize) -> f64 {
    let k = alignment.data_type().num_states() as f64;
    let p = p_distance(alignment, a, b);
    let arg = 1.0 - k * p / (k - 1.0);
    if arg <= 1e-9 {
        10.0 // saturation cap
    } else {
        -(k - 1.0) / k * arg.ln()
    }
}

/// Full pairwise JC distance matrix.
#[allow(clippy::needless_range_loop)] // fills both triangles of `d` at once
pub fn distance_matrix(alignment: &Alignment) -> Vec<Vec<f64>> {
    let n = alignment.num_taxa();
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist = jc_distance(alignment, i, j);
            d[i][j] = dist;
            d[j][i] = dist;
        }
    }
    d
}

/// Saitou–Nei neighbor joining over a distance matrix. Returns an unrooted
/// binary [`Tree`] whose taxa are the matrix indices. Negative branch-length
/// estimates are clamped to zero.
///
/// # Panics
/// Panics if the matrix is smaller than 2×2 or not square.
pub fn neighbor_joining(dist: &[Vec<f64>]) -> Tree {
    let n = dist.len();
    assert!(n >= 2, "need at least two taxa");
    assert!(
        dist.iter().all(|row| row.len() == n),
        "matrix must be square"
    );
    if n == 2 {
        return Tree::from_edges(2, &[(0, 1, dist[0][1].max(0.0))]);
    }

    // Active cluster list: (vertex id, row of distances to other actives).
    let mut next_vertex = n; // internal vertex ids start after the taxa
    let mut active: Vec<usize> = (0..n).collect();
    let mut d: Vec<Vec<f64>> = dist.to_vec();
    // `d` is indexed by position within `active`'s original order; keep a
    // dense matrix over "slots" and a map from slot -> vertex id.
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();

    while active.len() > 3 {
        let m = active.len();
        // Row sums.
        let r: Vec<f64> = (0..m).map(|i| (0..m).map(|j| d[i][j]).sum()).collect();
        // Find pair minimizing Q.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for i in 0..m {
            for j in (i + 1)..m {
                let q = (m as f64 - 2.0) * d[i][j] - r[i] - r[j];
                if q < best.2 {
                    best = (i, j, q);
                }
            }
        }
        let (i, j, _) = best;
        let u = next_vertex;
        next_vertex += 1;
        // Branch lengths to the new node.
        let li = 0.5 * d[i][j] + (r[i] - r[j]) / (2.0 * (m as f64 - 2.0));
        let lj = d[i][j] - li;
        edges.push((active[i], u, li.max(0.0)));
        edges.push((active[j], u, lj.max(0.0)));
        // Distances from u to the remaining clusters.
        let mut new_row = Vec::with_capacity(m - 2);
        for k in 0..m {
            if k != i && k != j {
                new_row.push(0.5 * (d[i][k] + d[j][k] - d[i][j]));
            }
        }
        // Rebuild the matrix without i, j; append u.
        let keep: Vec<usize> = (0..m).filter(|&k| k != i && k != j).collect();
        let mut nd = vec![vec![0.0; keep.len() + 1]; keep.len() + 1];
        for (a, &ka) in keep.iter().enumerate() {
            for (b, &kb) in keep.iter().enumerate() {
                nd[a][b] = d[ka][kb];
            }
        }
        for (a, &val) in new_row.iter().enumerate() {
            nd[a][keep.len()] = val;
            nd[keep.len()][a] = val;
        }
        let mut new_active: Vec<usize> = keep.iter().map(|&k| active[k]).collect();
        new_active.push(u);
        active = new_active;
        d = nd;
    }

    // Join the last three clusters on a central vertex.
    let c = next_vertex;
    let (x, y, z) = (0, 1, 2);
    let lx = 0.5 * (d[x][y] + d[x][z] - d[y][z]);
    let ly = 0.5 * (d[x][y] + d[y][z] - d[x][z]);
    let lz = 0.5 * (d[x][z] + d[y][z] - d[x][y]);
    edges.push((active[x], c, lx.max(0.0)));
    edges.push((active[y], c, ly.max(0.0)));
    edges.push((active[z], c, lz.max(0.0)));

    Tree::from_edges(n, &edges)
}

/// Convenience: NJ tree straight from an alignment (JC distances).
pub fn nj_tree(alignment: &Alignment) -> Tree {
    neighbor_joining(&distance_matrix(alignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::DataType;
    use crate::models::nucleotide;
    use crate::models::SiteRates;
    use crate::sequence::Sequence;
    use crate::simulate::Simulator;
    use simkit::SimRng;

    #[test]
    fn p_distance_basic() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "AAAA").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "AAAT").unwrap(),
        ])
        .unwrap();
        assert!((p_distance(&aln, 0, 1) - 0.25).abs() < 1e-12);
        assert_eq!(p_distance(&aln, 0, 0), 0.0);
    }

    #[test]
    fn p_distance_skips_gaps() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "AA-A").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "ATTA").unwrap(),
        ])
        .unwrap();
        // Comparable sites: 0,1,3 → one difference.
        assert!((p_distance(&aln, 0, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn jc_distance_increases_with_p() {
        let mk = |s: &str| {
            Alignment::new(vec![
                Sequence::from_text("a", DataType::Nucleotide, "AAAAAAAAAA").unwrap(),
                Sequence::from_text("b", DataType::Nucleotide, s).unwrap(),
            ])
            .unwrap()
        };
        let d1 = jc_distance(&mk("AAAAAAAAAT"), 0, 1);
        let d2 = jc_distance(&mk("AAAAAAATTT"), 0, 1);
        assert!(d2 > d1 && d1 > 0.0);
        // JC correction always exceeds p for p > 0.
        assert!(d1 > 0.1);
    }

    #[test]
    fn saturated_distance_capped() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "AAAA").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "TTTT").unwrap(),
        ])
        .unwrap();
        assert_eq!(jc_distance(&aln, 0, 1), 10.0);
    }

    #[test]
    fn nj_on_additive_distances_recovers_tree() {
        // Distances generated from a known tree are additive; NJ must recover
        // the topology exactly. Tree: ((0,1),(2,3)) with internal edge 0.4.
        //   0 -0.1- A -0.4- B -0.2- 2
        //   1 -0.3- A        B -0.5- 3
        let d = vec![
            vec![0.0, 0.4, 0.7, 1.0],
            vec![0.4, 0.0, 0.9, 1.2],
            vec![0.7, 0.9, 0.0, 0.7],
            vec![1.0, 1.2, 0.7, 0.0],
        ];
        let t = neighbor_joining(&d);
        t.check_invariants();
        // Expected: split {2,3} (normalized away from taxon 0).
        let splits = t.splits();
        assert_eq!(splits.len(), 1);
        let split = splits.into_iter().next().unwrap();
        assert_eq!(split[0], (1 << 2) | (1 << 3));
        // Branch lengths should be recovered (additivity).
        let l0 = t.branch_length(t.node(t.leaf_node(1)).parent.unwrap());
        let _ = l0; // internal edge length checked via tree length:
        assert!((t.tree_length() - (0.1 + 0.3 + 0.4 + 0.2 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn nj_recovers_simulated_topology() {
        let mut rng = SimRng::new(31);
        let model = nucleotide::jc69();
        let truth = Tree::random_topology(8, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 3000, &mut rng);
        let nj = nj_tree(&aln);
        assert_eq!(
            truth.robinson_foulds(&nj),
            0,
            "NJ on 3000 JC sites should recover the true 8-taxon topology"
        );
    }

    #[test]
    fn nj_small_cases() {
        let d2 = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
        let t2 = neighbor_joining(&d2);
        assert_eq!(t2.num_taxa(), 2);
        let d3 = vec![
            vec![0.0, 0.3, 0.5],
            vec![0.3, 0.0, 0.4],
            vec![0.5, 0.4, 0.0],
        ];
        let t3 = neighbor_joining(&d3);
        assert_eq!(t3.num_taxa(), 3);
        t3.check_invariants();
        assert!((t3.tree_length() - 0.6).abs() < 1e-9); // lx+ly+lz = (d01+d02+d12)/2
    }
}
