//! The spatial tree — the *Tree* portion of CLAMR (paper §6, CLAMR).
//!
//! "The Tree part of CLAMR includes the functions responsible for the
//! creation and operation of a K-D Tree. 20 % of all the faults in Tree
//! generate an SDC and 41 % cause a DUE."
//!
//! CLAMR locates face neighbours of adaptive cells through a spatial tree
//! rebuilt every timestep. Because AMR cells are power-of-two aligned, the
//! tree here is the axis-aligned special case of a k-d tree (alternating
//! midpoint splits — a region quadtree laid out in flat arrays): interior
//! nodes hold four child links, leaves hold a cell index. The flat arrays
//! are the injectable *TreeState*; a corrupted link either redirects a
//! neighbour query to the wrong cell (SDC) or walks out of the node arrays /
//! into a cycle (crash DUE — the 41 %).

/// Sentinel for "no child" / "no cell".
pub const NIL: i32 = -1;
/// Maximum descent depth before a query declares the tree corrupted
/// (a fault-free tree over a 2^16 grid has depth ≤ 16).
const MAX_DEPTH: usize = 64;

/// Builds the tree over `cells` into the injectable flat arrays.
///
/// Each cell is `(ox, oy, s, idx)`: fine-grid origin, fine-grid extent
/// (power of two) and the cell's index in the mesh arrays. `size` is the
/// fine-grid extent of the whole domain (power of two).
///
/// `child` holds 4 links per node (quadrants: `[SW, SE, NW, NE]` by
/// (x ≥ mid, y ≥ mid)); `cellarr` holds the leaf payloads.
pub fn build(child: &mut Vec<i32>, cellarr: &mut Vec<i32>, size: u32, cells: &[(u32, u32, u32, u32)]) {
    assert!(size.is_power_of_two(), "domain extent must be a power of two");
    child.clear();
    cellarr.clear();
    child.extend_from_slice(&[NIL; 4]);
    cellarr.push(NIL);
    for &(ox, oy, s, idx) in cells {
        assert!(s.is_power_of_two() && s <= size, "invalid cell extent {s}");
        // Descend from the root, creating interior nodes as needed.
        let mut node = 0usize;
        let (mut nx, mut ny, mut ns) = (0u32, 0u32, size);
        while ns > s {
            let half = ns / 2;
            let qx = u32::from(ox >= nx + half);
            let qy = u32::from(oy >= ny + half);
            let q = (qy * 2 + qx) as usize;
            let link = child[node * 4 + q];
            let next = if link == NIL {
                let new = cellarr.len();
                child.extend_from_slice(&[NIL; 4]);
                cellarr.push(NIL);
                child[node * 4 + q] = new as i32;
                new
            } else {
                link as usize
            };
            nx += qx * half;
            ny += qy * half;
            ns = half;
            node = next;
        }
        assert!(ns == s && nx == ox && ny == oy, "cell ({ox},{oy},{s}) misaligned with the quadtree grid");
        assert!(cellarr[node] == NIL, "overlapping cells at ({ox},{oy},{s})");
        cellarr[node] = idx as i32;
    }
}

/// Finds the cell containing fine-grid point `(x, y)`.
///
/// Returns `None` for points outside the domain or over uncovered regions.
/// Panics (a DUE) when corrupted links walk out of the arrays or descend
/// past [`MAX_DEPTH`].
pub fn query(child: &[i32], cellarr: &[i32], size: u32, x: u32, y: u32) -> Option<u32> {
    if x >= size || y >= size {
        return None;
    }
    let mut node = 0usize;
    let (mut nx, mut ny, mut ns) = (0u32, 0u32, size);
    for _depth in 0..MAX_DEPTH {
        let leaf = cellarr[node]; // corrupted node index ⇒ OOB panic (DUE)
        if leaf != NIL {
            return Some(leaf as u32);
        }
        if ns <= 1 {
            return None; // uncovered point at finest resolution
        }
        let half = ns / 2;
        let qx = u32::from(x >= nx + half);
        let qy = u32::from(y >= ny + half);
        let link = child[node * 4 + (qy * 2 + qx) as usize];
        if link == NIL {
            return None;
        }
        node = link as usize;
        nx += qx * half;
        ny += qy * half;
        ns = half;
    }
    panic!("spatial tree corrupted: descent exceeded {MAX_DEPTH} levels");
}

/// Writes, for every fine-grid point `(x, y)` of the `size × size` domain,
/// what [`query`] returns there into `table[y × size + x]` ([`NIL`] for
/// `None`), by one depth-first walk over the tree instead of one descent per
/// point. Returns `false`, leaving `table` unusable, when some walk would
/// index outside the node arrays — where a query could panic, so only
/// [`query`] itself may answer.
///
/// Every query ends within `log2(size)` levels (the region halves per hop),
/// so the walk is bounded too, and links that share or revisit nodes
/// rasterise exactly as the queries would follow them.
pub fn rasterize(child: &[i32], cellarr: &[i32], size: u32, table: &mut Vec<i32>) -> bool {
    let size = size as usize;
    table.clear();
    table.resize(size * size, NIL);
    fill(child, cellarr, size, table, 0, (0, 0, size))
}

/// Rasterises the region `(nx, ny, ns)` reached at `node`.
fn fill(child: &[i32], cellarr: &[i32], size: usize, table: &mut [i32], node: usize, region: (usize, usize, usize)) -> bool {
    let (nx, ny, ns) = region;
    let Some(&leaf) = cellarr.get(node) else { return false };
    if leaf != NIL {
        for row in table[ny * size..(ny + ns) * size].chunks_exact_mut(size) {
            row[nx..nx + ns].fill(leaf);
        }
        return true;
    }
    if ns <= 1 {
        return true;
    }
    let half = ns / 2;
    for q in 0..4 {
        let Some(&link) = child.get(node.wrapping_mul(4).wrapping_add(q)) else { return false };
        if link != NIL && !fill(child, cellarr, size, table, link as usize, (nx + (q & 1) * half, ny + (q >> 1) * half, half)) {
            return false;
        }
    }
    true
}

/// [`query`] answered from a table [`rasterize`] filled.
#[inline]
pub fn lookup(table: &[i32], size: u32, x: u32, y: u32) -> Option<u32> {
    if x >= size || y >= size {
        return None;
    }
    let leaf = table[y as usize * size as usize + x as usize];
    (leaf != NIL).then_some(leaf as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny valid AMR cover: one 2×2 coarse cell + four 1×1 cells.
    fn sample_cells() -> Vec<(u32, u32, u32, u32)> {
        vec![
            (0, 0, 2, 0),
            (2, 0, 1, 1),
            (3, 0, 1, 2),
            (2, 1, 1, 3),
            (3, 1, 1, 4),
            (0, 2, 2, 5),
            (2, 2, 2, 6),
        ]
    }

    #[test]
    fn query_finds_every_covered_point() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        // Point (1,1) is inside the coarse cell 0.
        assert_eq!(query(&child, &cells, 4, 1, 1), Some(0));
        assert_eq!(query(&child, &cells, 4, 2, 0), Some(1));
        assert_eq!(query(&child, &cells, 4, 3, 1), Some(4));
        assert_eq!(query(&child, &cells, 4, 0, 3), Some(5));
        assert_eq!(query(&child, &cells, 4, 3, 3), Some(6));
    }

    #[test]
    fn query_outside_domain_is_none() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        assert_eq!(query(&child, &cells, 4, 4, 0), None);
        assert_eq!(query(&child, &cells, 4, 0, 7), None);
    }

    #[test]
    fn uncovered_region_is_none() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &[(0, 0, 2, 0)]); // only one quadrant covered
        assert_eq!(query(&child, &cells, 4, 1, 1), Some(0));
        assert_eq!(query(&child, &cells, 4, 3, 3), None);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_cells_are_rejected() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &[(0, 0, 2, 0), (0, 0, 2, 1)]);
    }

    #[test]
    fn corrupted_link_cycle_terminates() {
        // A link cycle cannot loop forever: the region extent halves on
        // every hop, so the walk bottoms out (returning None — the caller
        // then computes with a wrong neighbour, an SDC) instead of hanging.
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        for link in child.iter_mut() {
            if *link != NIL {
                *link = 0; // every interior link points back at the root
            }
        }
        assert_eq!(query(&child, &cells, 4, 3, 3), None);
    }

    #[test]
    fn corrupted_link_out_of_bounds_panics() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        child[0] = 1_000_000;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| query(&child, &cells, 4, 0, 0)));
        assert!(r.is_err());
    }

    #[test]
    fn full_uniform_cover_roundtrips() {
        // 8×8 fine grid fully covered by 1×1 cells.
        let mut spec = Vec::new();
        for y in 0..8u32 {
            for x in 0..8u32 {
                spec.push((x, y, 1, y * 8 + x));
            }
        }
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 8, &spec);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(query(&child, &cells, 8, x, y), Some(y * 8 + x));
            }
        }
    }
    /// Asserts the rasterised table answers every point like `query`.
    fn assert_table_matches_queries(child: &[i32], cells: &[i32], size: u32) {
        let mut table = Vec::new();
        assert!(rasterize(child, cells, size, &mut table));
        for y in 0..size + 2 {
            for x in 0..size + 2 {
                assert_eq!(lookup(&table, size, x, y), query(child, cells, size, x, y), "point ({x}, {y})");
            }
        }
    }

    #[test]
    fn rasterized_table_answers_like_queries() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        assert_table_matches_queries(&child, &cells, 4);
        build(&mut child, &mut cells, 4, &[(0, 0, 2, 0)]);
        assert_table_matches_queries(&child, &cells, 4);
        // A big cell inserted over smaller ones shadows them, as in a query.
        build(&mut child, &mut cells, 8, &[(0, 0, 1, 0), (4, 4, 2, 1), (0, 0, 4, 2)]);
        assert_table_matches_queries(&child, &cells, 8);
    }

    #[test]
    fn rasterized_table_follows_corrupted_links_like_queries() {
        let mut child = Vec::new();
        let mut cells = Vec::new();
        build(&mut child, &mut cells, 4, &sample_cells());
        let pristine = (child.clone(), cells.clone());
        // Cycles back to the root, a shared child, a corrupted leaf payload.
        for link in child.iter_mut().filter(|l| **l != NIL) {
            *link = 0;
        }
        assert_table_matches_queries(&child, &cells, 4);
        let (mut child, mut cells) = pristine.clone();
        child[1] = child[3];
        cells[0] = 12345;
        assert_table_matches_queries(&child, &cells, 4);
        // A link out of the node arrays: only `query` may answer.
        let (mut child, cells) = pristine;
        child[0] = 1_000_000;
        assert!(!rasterize(&child, &cells, 4, &mut Vec::new()));
        child[0] = -7;
        assert!(!rasterize(&child, &cells, 4, &mut Vec::new()));
    }
}
