//! Codec stability: the bytes `FaceMap::write_to` emits for a fixed seeded
//! map are pinned by their FNV-1a digest. Any change to the face numbering,
//! the signatures, the centroids, the neighbor lists or the byte layout of
//! the format moves the digest — a map file written by one build must read
//! back identically in every later one.

use fttt::facemap::{FaceMap, RepairMode};
use fttt::replay::{digest_hex, Digest};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsn_geometry::{Point, Rect};

/// Twelve sensors (66 pairs, so every signature spans two plane words)
/// scattered over the paper's 100 m field from a fixed seed.
fn seeded_map() -> FaceMap {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let positions: Vec<Point> = (0..12)
        .map(|_| Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0)))
        .collect();
    FaceMap::build(&positions, Rect::square(100.0), 1.15, 2.0)
}

fn codec_digest(map: &FaceMap) -> String {
    let mut bytes = Vec::new();
    map.write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    let mut d = Digest::new();
    d.write_bytes(&bytes);
    digest_hex(d.value())
}

#[test]
fn built_map_encodes_to_pinned_bytes() {
    assert_eq!(codec_digest(&seeded_map()), "0xf865ade2ede07dfb");
}

#[test]
fn repaired_map_encodes_to_pinned_bytes() {
    let mut map = seeded_map();
    map.kill_node(5, RepairMode::Incremental);
    assert_eq!(codec_digest(&map), "0x9a9f321aa855066f");
}

#[test]
fn decoded_map_re_encodes_to_the_same_bytes() {
    let map = seeded_map();
    let mut bytes = Vec::new();
    map.write_to(&mut bytes).unwrap();
    let back = FaceMap::read_from(&mut bytes.as_slice()).unwrap();
    assert_eq!(codec_digest(&back), codec_digest(&map));
}
