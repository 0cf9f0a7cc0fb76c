//! The generated corpus of many small blocks that experiments E10 (`corpus_load`)
//! and E11 (`peak_rss`) measure: MiBench-like blocks of [`MIN_VERTICES`] to
//! [`MAX_VERTICES`] vertices, split across [`FILES`] `.dfg` files.

use std::path::Path;

use ise_corpus::{write_corpus, CorpusBlock};
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};

/// Smallest generated block, in vertices.
pub const MIN_VERTICES: usize = 12;
/// Largest generated block, in vertices.
pub const MAX_VERTICES: usize = 32;

/// Files each corpus is split across.
pub const FILES: usize = 8;

/// Seed of the generated blocks.
pub const SEED: u64 = 1;

/// SplitMix64: a seeded, stateless mix for per-block sizes.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Writes `count` blocks across [`FILES`] files under `dir`; returns the bytes
/// written. Block `i`'s generator seed embeds `i`, so block names are unique.
///
/// # Panics
///
/// Panics if `dir` cannot be created or a file cannot be written.
pub fn write_blocks(dir: &Path, count: usize) -> u64 {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    let per_file = count.div_ceil(FILES).max(1);
    let mut bytes = 0;
    for (f, start) in (0..count).step_by(per_file).enumerate() {
        let part: Vec<CorpusBlock> = (start..count.min(start + per_file))
            .map(|i| {
                let span = (MAX_VERTICES - MIN_VERTICES + 1) as u64;
                let size = MIN_VERTICES + (mix(SEED ^ i as u64) % span) as usize;
                let dfg = generate_block(&MiBenchLikeConfig::new(size), (SEED << 32) | i as u64)
                    .expect("the MiBench-like generator always yields a valid block");
                CorpusBlock {
                    dfg,
                    meta: Vec::new(),
                }
            })
            .collect();
        let text = write_corpus(&part);
        bytes += text.len() as u64;
        let path = dir.join(format!("part-{f:02}.dfg"));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    }
    bytes
}
