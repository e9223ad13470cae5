//! Block storage grows with the live data, not with the 1,024-row
//! crossbar envelope. At `n = 2` an element touches its 8 compute rows
//! and a few constants rows from 512, so after a full cluster run every
//! element block holds at most two 8-row tiles; only the shared tables
//! (the impedance-pair LUT and the on-PIM math seed table) hold more.

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_math::MathConfig;
use pim_sim::MemBlock;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

/// Tiles of one full 1,024-row block.
const FULL_BLOCK_TILES: usize = 128;

fn check_level3_run(math: MathConfig) {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut native = Solver::<Acoustic>::uniform(mesh.clone(), 2, FluxKind::Riemann, material);
    native.set_initial(|v, x| (v as f64 + 1.0) * (std::f64::consts::TAU * x.x).sin());
    let mut cluster = ClusterRunner::new(
        &mesh,
        2,
        FluxKind::Riemann,
        material,
        native.state(),
        1e-3,
        ClusterConfig::new(2).with_math(math),
    );
    cluster.run(1);

    for (c, (chip, mapping)) in cluster.chips().iter().zip(cluster.mappings()).enumerate() {
        let tables = [mapping.lut_block(), mapping.math_block()];
        let mut element_blocks = 0;
        for (id, block) in chip.resident_blocks() {
            if tables.contains(&id) {
                continue;
            }
            element_blocks += 1;
            let tiles = block.resident_bytes() / MemBlock::TILE_BYTES;
            assert!(tiles <= 2, "chip {c}: element block {} holds {tiles} tiles", id.0);
        }
        assert!(element_blocks > 0, "chip {c} ran no element blocks");
        let table_tiles: usize =
            tables.iter().map(|&id| chip.block(id).resident_bytes() / MemBlock::TILE_BYTES).sum();
        assert!(table_tiles <= tables.len() * FULL_BLOCK_TILES);
        assert_eq!(
            chip.resident_cell_bytes(),
            chip.resident_blocks().map(|(_, b)| b.resident_bytes()).sum::<usize>()
        );
        assert!(
            chip.resident_cell_bytes() <= (2 * element_blocks + table_tiles) * MemBlock::TILE_BYTES
        );
        if math == MathConfig::on_pim() {
            let seed_tiles =
                chip.block(mapping.math_block()).resident_bytes() / MemBlock::TILE_BYTES;
            assert_eq!(
                seed_tiles, FULL_BLOCK_TILES,
                "chip {c}: the 32K-word seed table fills its block"
            );
        }
    }
}

#[test]
fn element_blocks_hold_at_most_two_tiles_after_a_level3_run() {
    check_level3_run(MathConfig::off());
}

#[test]
fn only_table_blocks_grow_past_two_tiles_with_on_pim_math() {
    check_level3_run(MathConfig::on_pim());
}
