//! Literal pins of simulated behaviour across the study matrix: the
//! rendered report JSON of every partition scheme × study mix × seed, and
//! of one seed-7 cell on the default partition.
//!
//! The front end once had a block-granular allocation and rename path
//! next to the per-instruction one, and this file compared the two. These
//! literals were read when both paths produced them, so a front-end
//! change that moves any report — in fetch order, slot reuse, rename or
//! wakeup registration — fails here.

use smt::{FetchPartition, SimConfig};
use smt_experiments::study::{mix_by_name, STUDY_MIXES};

mod common;
use common::pin;

const BEHAVIOUR_CHANGED: &str = "simulated behaviour changed: every report the \
                                 front end produces is pinned here";

fn report_json(partition: FetchPartition, mix: &str, seed: u64, cycles: u64) -> String {
    SimConfig::new()
        .with_benchmarks(mix_by_name(mix).unwrap(), seed)
        .with_partition(partition)
        .build()
        .run(cycles)
        .to_json()
        .render()
}

#[test]
fn block_and_instruction_granular_paths_are_bit_identical() {
    // One stream in partition → mix → seed order: its FNV-1a is the fold
    // of the per-cell hashes.
    let mut matrix = String::new();
    for partition in FetchPartition::all_schemes() {
        for mix in STUDY_MIXES {
            for seed in [42, 1337] {
                matrix += &report_json(partition, mix, seed, 800);
            }
        }
    }
    pin(
        "the 800-cycle study-matrix reports",
        matrix.as_bytes(),
        38_274,
        0x3f96_2f1c_acc3_b55d,
        BEHAVIOUR_CHANGED,
    );
}

/// Named for the chunk-size sweep this pin replaced: every chunk size
/// produced these bytes.
#[test]
fn every_chunk_size_matches_the_default() {
    let json = report_json(FetchPartition::new(2, 8), STUDY_MIXES[0], 7, 600);
    pin(
        "the 2.8/standard/seed-7 600-cycle report",
        json.as_bytes(),
        1_361,
        0x8e78_86f8_5c5a_e784,
        BEHAVIOUR_CHANGED,
    );
}
