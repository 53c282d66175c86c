//! Property tests for the sweep store's loaders.
//!
//! Random, truncated and bit-flipped record lines, shard files and JSON
//! exports go into `CellRecord::from_json_line`, `SweepStore::load_cells`
//! and `parse_export_json`.  Every case must come back as an error or with a
//! torn tail dropped; none may panic.  The record reader is also checked
//! against an oracle: the tree-based reader it replaced (parse the line into
//! a `Json` tree, then look fields up), kept here and only here.  The two
//! must accept exactly the same lines and yield equal records.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use analysis::streaming::{P2Quantile, P2State, StreamingMoments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sweeps::json::{parse, Json};
use sweeps::{parse_export_json, CellRecord, MetricAggregate, SweepStore, TRACKED_QUANTILES};

/// The tree-based record reader, as the store used before the direct one.
mod oracle {
    use super::*;

    pub fn record(line: &str) -> Result<CellRecord, String> {
        let doc = parse(line)?;
        let hash = doc
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("record has no `cell` hash")?
            .to_string();
        let point = field_u64(&doc, "point")?;
        let trials =
            u32::try_from(field_u64(&doc, "trials")?).map_err(|_| "`trials` overflows u32")?;
        let metrics = match doc.get("metrics") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .map(|(name, value)| Ok((name.clone(), aggregate(value)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("record has no `metrics` object".into()),
        };
        Ok(CellRecord {
            hash,
            point,
            trials,
            metrics,
        })
    }

    fn aggregate(doc: &Json) -> Result<MetricAggregate, String> {
        let moments = StreamingMoments {
            count: field_u64(doc, "count")?,
            sum: field_f64(doc, "sum")?,
            welford_mean: field_f64(doc, "welford_mean")?,
            m2: field_f64(doc, "m2")?,
            min: field_f64(doc, "min")?,
            max: field_f64(doc, "max")?,
        };
        let sketches = doc
            .get("quantiles")
            .and_then(Json::as_array)
            .ok_or("aggregate has no `quantiles`")?;
        if sketches.len() != TRACKED_QUANTILES.len() {
            return Err("wrong sketch count".into());
        }
        let mut quantiles = Vec::new();
        for (expected_q, sketch) in TRACKED_QUANTILES.iter().zip(sketches) {
            let state = P2State {
                q: field_f64(sketch, "q")?,
                count: field_u64(sketch, "count")?,
                heights: array5(sketch, "heights")?,
                positions: array5(sketch, "positions")?,
                desired: array5(sketch, "desired")?,
                buffer: numbers(sketch, "buffer")?,
            };
            if (state.q - expected_q).abs() > 1e-12 {
                return Err("sketch order mismatch".into());
            }
            quantiles.push(P2Quantile::restore(state).ok_or("inconsistent sketch")?);
        }
        let quantiles = quantiles.try_into().map_err(|_| "sketch count")?;
        Ok(MetricAggregate { moments, quantiles })
    }

    fn field_f64(doc: &Json, key: &str) -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing `{key}`"))
    }

    fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing `{key}`"))
    }

    fn numbers(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing `{key}`"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("non-numeric `{key}`")))
            .collect()
    }

    fn array5(doc: &Json, key: &str) -> Result<[f64; 5], String> {
        numbers(doc, key)?
            .try_into()
            .map_err(|_| format!("`{key}` needs 5 entries"))
    }

    /// The store loader's contract over raw shard bytes, with the oracle
    /// reader: `None` where the loader must fail.
    pub fn load(shards: &[Vec<u8>]) -> Option<BTreeMap<String, CellRecord>> {
        let mut cells = BTreeMap::new();
        for bytes in shards {
            let content = std::str::from_utf8(bytes).ok()?;
            let lines: Vec<&str> = content.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match record(line) {
                    Ok(record) => {
                        cells.insert(record.hash.clone(), record);
                    }
                    Err(_) if i + 1 == lines.len() && !content.ends_with('\n') => {}
                    Err(_) => return None,
                }
            }
        }
        Some(cells)
    }
}

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_shards() -> Vec<String> {
    ["shard-0001-00.jsonl", "shard-0002-00.jsonl"]
        .iter()
        .map(|name| fs::read_to_string(fixtures().join("store/shards").join(name)).unwrap())
        .collect()
}

/// Record lines to mutate: the fixture's real cells plus small synthetic
/// ones (buffered sketches, escaped metric names, signed zeros).
fn base_lines() -> Vec<String> {
    let mut lines: Vec<String> = fixture_shards()
        .iter()
        .flat_map(|content| {
            content
                .split_inclusive('\n')
                .filter(|line| line.ends_with('\n'))
                .map(|line| line.trim_end().to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    for trials in 1..=6u32 {
        let rows: Vec<Vec<(&'static str, f64)>> = (0..trials)
            .map(|t| {
                vec![
                    ("rounds", f64::from(t) * 0.1 + 7.0),
                    ("odd \"name\"\n\u{1}é", -0.0),
                    ("big", 1e150 * f64::from(t + 1)),
                ]
            })
            .collect();
        lines.push(CellRecord::from_trials(format!("{trials:016x}"), 9, &rows).to_json_line());
    }
    lines
}

/// The property: both readers agree on acceptance and on the record.
/// Returns whether the line was accepted.
fn check_line(line: &str) -> bool {
    let direct = CellRecord::from_json_line(line);
    let tree = oracle::record(line);
    match (&direct, &tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "records differ for {line:?}");
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!(
            "readers disagree on {line:?}: direct {:?}, tree {:?}",
            direct.map(|_| ()),
            tree.map(|_| ())
        ),
    }
}

fn random_value(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..12) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::UInt(rng.gen_range(0..10)),
        3 => Json::UInt(u64::MAX),
        4 => Json::Int(-1),
        5 => Json::Float([0.5, -0.0, 3.0, 1e20, 2f64.powi(53) + 2.0][rng.gen_range(0..5usize)]),
        6 => Json::Float(0.1),
        7 => Json::Str("x".into()),
        8 => Json::Array(Vec::new()),
        9 => Json::Array((0..5).map(|i| Json::Float(f64::from(i))).collect()),
        10 => Json::Object(Vec::new()),
        _ => Json::Float(0.9),
    }
}

/// A value of the same type that differs from `value`, so an earlier
/// duplicate key still type-checks and decides which occurrence is read.
fn perturb(value: &Json) -> Json {
    match value {
        Json::UInt(v) => Json::UInt(v.wrapping_add(1)),
        Json::Float(v) => Json::Float(v * 0.5 + 1.0),
        Json::Str(text) => Json::Str(format!("{text}x")),
        Json::Array(items) => Json::Array(items.iter().map(perturb).collect()),
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .map(|(key, v)| (key.clone(), perturb(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The number of objects and arrays in a tree.
fn containers(node: &Json) -> usize {
    match node {
        Json::Object(pairs) => 1 + pairs.iter().map(|(_, v)| containers(v)).sum::<usize>(),
        Json::Array(items) => 1 + items.iter().map(containers).sum::<usize>(),
        _ => 0,
    }
}

/// One structural edit to a container picked uniformly from the tree, so
/// the deep aggregate and sketch objects get edited as often as the root.
fn mutate_tree(tree: &mut Json, rng: &mut StdRng) {
    let mut nth = rng.gen_range(0..containers(tree));
    edit_nth(tree, &mut nth, rng);
}

fn edit_nth(node: &mut Json, nth: &mut usize, rng: &mut StdRng) -> bool {
    if !matches!(node, Json::Object(_) | Json::Array(_)) {
        return false;
    }
    if *nth == 0 {
        edit(node, rng);
        return true;
    }
    *nth -= 1;
    match node {
        Json::Object(pairs) => pairs.iter_mut().any(|(_, v)| edit_nth(v, nth, rng)),
        Json::Array(items) => items.iter_mut().any(|v| edit_nth(v, nth, rng)),
        _ => false,
    }
}

/// A removed, duplicated (earlier or later, same or other value),
/// reordered, retyped or added member.
fn edit(node: &mut Json, rng: &mut StdRng) {
    match node {
        Json::Object(pairs) if !pairs.is_empty() => {
            let i = rng.gen_range(0..pairs.len());
            match rng.gen_range(0..7) {
                0 => {
                    pairs.remove(i);
                }
                1 => {
                    let copy = pairs[i].clone();
                    pairs.push(copy);
                }
                2 | 3 => {
                    let (key, value) = pairs[i].clone();
                    let value = if rng.gen_bool(0.5) {
                        perturb(&value)
                    } else {
                        random_value(rng)
                    };
                    pairs.insert(0, (key, value));
                }
                4 => {
                    let j = rng.gen_range(0..pairs.len());
                    pairs.swap(i, j);
                }
                5 => pairs[i].1 = random_value(rng),
                _ => pairs.push(("extra".into(), random_value(rng))),
            }
        }
        Json::Array(items) if !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            match rng.gen_range(0..4) {
                0 => {
                    items.remove(i);
                }
                1 => items.push(items[i].clone()),
                2 => items[i] = random_value(rng),
                _ => items.push(random_value(rng)),
            }
        }
        Json::Object(pairs) => pairs.push(("extra".into(), random_value(rng))),
        Json::Array(items) => items.push(random_value(rng)),
        scalar => *scalar = random_value(rng),
    }
}

/// Whitespace the grammar allows between tokens, at a random spot (inside a
/// string or number it changes the value, which both readers must agree on).
fn insert_whitespace(line: &str, rng: &mut StdRng) -> String {
    let at = rng.gen_range(0..=line.len());
    if !line.is_char_boundary(at) {
        return line.to_string();
    }
    let ws = [" ", "\t", "\r\n", "  "][rng.gen_range(0..4usize)];
    format!("{}{ws}{}", &line[..at], &line[at..])
}

fn pick(rng: &mut StdRng, alphabet: &[u8]) -> u8 {
    alphabet[rng.gen_range(0..alphabet.len())]
}

fn flip_bit(bytes: &mut [u8], rng: &mut StdRng) {
    let at = rng.gen_range(0..bytes.len());
    bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
}

#[test]
fn direct_reader_agrees_with_the_tree_reader_on_every_mutation() {
    let lines = base_lines();
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for line in &lines {
        assert!(check_line(line));
        let record = CellRecord::from_json_line(line).unwrap();
        assert_eq!(&record.to_json_line(), line, "writer and reader round trip");
    }
    // Every prefix of a short line: a torn write at each byte.
    let short = lines.last().unwrap();
    for cut in (0..short.len()).filter(|&cut| short.is_char_boundary(cut)) {
        assert!(!check_line(&short[..cut]), "a torn line is rejected");
    }
    let mut accepted = [0usize; 5];
    for case in 0..6000 {
        let line = &lines[rng.gen_range(0..lines.len())];
        // Half the cases are structural edits, a tenth each of the rest.
        let class = [0, 1, 2, 3, 3, 3, 3, 3, 4, 4][case % 10];
        let mutated = match class {
            0 => {
                let mut bytes = line.clone().into_bytes();
                flip_bit(&mut bytes, &mut rng);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let mut bytes = line.clone().into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = pick(&mut rng, b"{}[]:,\"\\0123456789.-eE ntrufals");
                String::from_utf8_lossy(&bytes).into_owned()
            }
            2 => insert_whitespace(line, &mut rng),
            3 => {
                let mut tree = parse(line).unwrap();
                for _ in 0..rng.gen_range(1..4) {
                    mutate_tree(&mut tree, &mut rng);
                }
                tree.to_string()
            }
            _ => (0..rng.gen_range(0..40))
                .map(|_| char::from(pick(&mut rng, b"{}[]:,\"\\01.-e nul")))
                .collect(),
        };
        accepted[class] += usize::from(check_line(&mutated));
    }
    // Each class lands on both sides often enough for the agreement to mean
    // something: flipped bits and tokens mostly break the syntax, whitespace
    // breaks it only inside a key or a number, and structural edits hit both
    // the tolerated forms (reordered, duplicated, extra keys) and the
    // schema's rejections.
    let [flips, tokens, spaces, edits, junk] = accepted;
    for count in [flips, tokens, spaces] {
        assert!((50..550).contains(&count), "{accepted:?} of 600 each");
    }
    assert!((250..2750).contains(&edits), "{accepted:?}: edits of 3000");
    assert_eq!(junk, 0);
}

fn temp_store(tag: &str) -> (PathBuf, SweepStore) {
    let dir = std::env::temp_dir().join(format!("sweep-loader-props-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let (_, spec) = SweepStore::open(&fixtures().join("store")).unwrap();
    let store = SweepStore::create(&dir, &spec).unwrap();
    (dir, store)
}

fn write_shards(dir: &Path, shards: &[Vec<u8>]) {
    let shards_dir = dir.join("shards");
    for entry in fs::read_dir(&shards_dir).unwrap() {
        fs::remove_file(entry.unwrap().path()).unwrap();
    }
    for (i, bytes) in shards.iter().enumerate() {
        fs::write(
            shards_dir.join(format!("shard-{:04}-00.jsonl", i + 1)),
            bytes,
        )
        .unwrap();
    }
}

#[test]
fn shard_loader_drops_torn_tails_and_rejects_corruption_without_panicking() {
    let (dir, store) = temp_store("shards");
    let clean: Vec<Vec<u8>> = fixture_shards()
        .into_iter()
        .map(|content| {
            // The fixture's first shard ends in a torn line; start whole.
            let end = content.rfind('\n').unwrap() + 1;
            content.as_bytes()[..end].to_vec()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5eed_5a4d);
    for case in 0..240 {
        let mut shards = clean.clone();
        let target = rng.gen_range(0..shards.len());
        let bytes = &mut shards[target];
        match case % 4 {
            // A kill mid-write: the tail of the shard is cut.
            0 => {
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
                let complete = bytes.iter().filter(|&&b| b == b'\n').count();
                write_shards(&dir, &shards);
                let loaded = store.load_cells().expect("a torn tail is dropped");
                let other = 3; // the untouched shard holds three cells
                assert_eq!(loaded.len(), complete + other, "cut at {cut}");
                continue;
            }
            1 => flip_bit(bytes, &mut rng),
            2 => {
                let junk: Vec<u8> = (0..rng.gen_range(1..30)).map(|_| rng.gen()).collect();
                bytes.extend(junk);
            }
            _ => {
                let at = rng.gen_range(0..bytes.len());
                bytes.insert(at, pick(&mut rng, b"\n{}x"));
            }
        }
        write_shards(&dir, &shards);
        let loaded = store.load_cells().ok();
        assert_eq!(loaded, oracle::load(&shards), "case {case}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn export_parser_rejects_truncated_and_survives_flipped_documents() {
    let document = fs::read_to_string(fixtures().join("export.json")).unwrap();
    assert_eq!(parse_export_json(&document).unwrap().len(), 6);
    let mut rng = StdRng::seed_from_u64(0x5eed_e4b0);
    for _ in 0..120 {
        let cut = rng.gen_range(0..document.len());
        assert!(parse_export_json(&document[..cut]).is_err(), "cut at {cut}");
    }
    for _ in 0..120 {
        let mut bytes = document.clone().into_bytes();
        flip_bit(&mut bytes, &mut rng);
        let _ = parse_export_json(&String::from_utf8_lossy(&bytes));
    }
    for _ in 0..120 {
        let junk: String = (0..rng.gen_range(0..60))
            .map(|_| char::from(pick(&mut rng, b"{}[]:,\"\\01.-e nul")))
            .collect();
        assert!(parse_export_json(&junk).is_err(), "{junk:?}");
    }
}
