//! Format compatibility: a store written by an earlier build must load and
//! re-export byte for byte.
//!
//! The fixture (see `tests/fixtures/README.md`) holds a manifest, two shard
//! generations and a torn final line in the first generation, plus the CSV
//! and JSON exports that build wrote from it.

use std::fs;
use std::path::PathBuf;

use sweeps::{export_csv, export_json, ordered_cells, parse_export_json, CellRecord, SweepStore};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn committed_store_reexports_byte_for_byte() {
    let (store, spec) = SweepStore::open(&fixtures().join("store")).expect("fixture store opens");
    let records = store.load_cells().expect("fixture shards load");
    assert_eq!(
        records.len(),
        6,
        "the torn line is dropped, its cell re-ran"
    );
    let (pairs, missing) = ordered_cells(&spec, &records).unwrap();
    assert_eq!(missing, 0);

    let csv = fs::read_to_string(fixtures().join("export.csv")).unwrap();
    let json = fs::read_to_string(fixtures().join("export.json")).unwrap();
    assert!(
        export_csv(&pairs) == csv,
        "CSV export drifted from the fixture"
    );
    assert!(
        export_json(&spec, &pairs) == json,
        "JSON export drifted from the fixture"
    );
    assert_eq!(parse_export_json(&json).unwrap(), pairs);
}

#[test]
fn committed_shard_lines_reserialize_to_their_own_bytes() {
    let shards = fixtures().join("store/shards");
    let mut lines = 0;
    for name in ["shard-0001-00.jsonl", "shard-0002-00.jsonl"] {
        let content = fs::read_to_string(shards.join(name)).unwrap();
        // Only newline-terminated lines are complete records.
        for line in content.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
            let line = line.trim_end_matches('\n');
            let record = CellRecord::from_json_line(line).unwrap();
            assert!(record.to_json_line() == line, "{name}: line drifted");
            lines += 1;
        }
    }
    assert_eq!(lines, 6);
}
