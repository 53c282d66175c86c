//! Streaming per-cell aggregation and its serialized form.
//!
//! A sweep cell may run millions of trials; nothing here ever holds
//! per-trial data.  Every metric a protocol reports folds into a
//! [`MetricAggregate`]: online moments ([`analysis::streaming::StreamingMoments`])
//! plus three P² quantile sketches (q = 0.1, 0.5, 0.9).  A finished cell is a
//! [`CellRecord`] — the unit the shard store persists, one JSONL line each.
//!
//! Aggregation order is trial order (the [`crate::TrialRunner`] returns
//! results in trial order regardless of thread count), so a record is a
//! deterministic function of the cell spec alone — the property the
//! byte-identical-resume guarantee rests on.

use std::collections::BTreeMap;

use analysis::streaming::{P2Quantile, P2State, StreamingEstimator, StreamingMoments};

use crate::error::SweepError;
use crate::json::{write_f64, write_str, write_u64, Json, Reader};

/// The quantiles every metric tracks.
pub const TRACKED_QUANTILES: [f64; 3] = [0.1, 0.5, 0.9];

/// Streaming summary of one metric across a cell's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAggregate {
    /// Count / sum / mean / variance / min / max.
    pub moments: StreamingMoments,
    /// P² sketches for [`TRACKED_QUANTILES`], in that order.
    pub quantiles: [P2Quantile; 3],
}

impl MetricAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self {
            moments: StreamingMoments::new(),
            quantiles: TRACKED_QUANTILES
                .map(|q| P2Quantile::new(q).expect("tracked quantiles are valid")),
        }
    }

    /// Absorbs one trial's value.
    pub fn observe(&mut self, x: f64) {
        self.moments.observe(x);
        for sketch in &mut self.quantiles {
            sketch.observe(x);
        }
    }

    /// The estimate for tracked quantile index `i` (0 → q10, 1 → q50, 2 → q90).
    #[must_use]
    pub fn quantile(&self, i: usize) -> f64 {
        self.quantiles[i].estimate()
    }

    /// Writes the full aggregate state as one JSON object.
    fn write_json(&self, out: &mut String) {
        let m = &self.moments;
        out.push_str("{\"count\":");
        write_u64(out, m.count);
        for (key, value) in [
            (",\"sum\":", m.sum),
            (",\"welford_mean\":", m.welford_mean),
            (",\"m2\":", m.m2),
            (",\"min\":", m.min),
            (",\"max\":", m.max),
        ] {
            out.push_str(key);
            write_f64(out, value);
        }
        out.push_str(",\"quantiles\":[");
        for (i, sketch) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_sketch(out, &sketch.snapshot());
        }
        out.push_str("]}");
    }

    /// Reads what [`MetricAggregate::write_json`] wrote.  Unknown keys are
    /// skipped and the first of duplicate keys wins, as a tree lookup would.
    fn read(reader: &mut Reader<'_>) -> Result<Self, String> {
        let (mut count, mut sum, mut welford_mean, mut m2, mut min, mut max) =
            (None, None, None, None, None, None);
        let mut quantiles = None;
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "count" if count.is_none() => count = Some(read_u64(reader, "count")?),
                "sum" if sum.is_none() => sum = Some(read_f64(reader, "sum")?),
                "welford_mean" if welford_mean.is_none() => {
                    welford_mean = Some(read_f64(reader, "welford_mean")?);
                }
                "m2" if m2.is_none() => m2 = Some(read_f64(reader, "m2")?),
                "min" if min.is_none() => min = Some(read_f64(reader, "min")?),
                "max" if max.is_none() => max = Some(read_f64(reader, "max")?),
                "quantiles" if quantiles.is_none() => quantiles = Some(read_sketches(reader)?),
                _ => {
                    reader.value()?;
                }
            }
        }
        let moments = StreamingMoments {
            count: count.ok_or("missing or non-integer `count`")?,
            sum: require_f64(sum, "sum")?,
            welford_mean: require_f64(welford_mean, "welford_mean")?,
            m2: require_f64(m2, "m2")?,
            min: require_f64(min, "min")?,
            max: require_f64(max, "max")?,
        };
        let quantiles = quantiles.ok_or("aggregate has no `quantiles`")?;
        Ok(Self { moments, quantiles })
    }
}

impl Default for MetricAggregate {
    fn default() -> Self {
        Self::new()
    }
}

fn write_sketch(out: &mut String, state: &P2State) {
    out.push_str("{\"q\":");
    write_f64(out, state.q);
    out.push_str(",\"count\":");
    write_u64(out, state.count);
    for (key, values) in [
        (",\"heights\":[", &state.heights[..]),
        (",\"positions\":[", &state.positions[..]),
        (",\"desired\":[", &state.desired[..]),
        (",\"buffer\":[", &state.buffer[..]),
    ] {
        out.push_str(key);
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(out, v);
        }
        out.push(']');
    }
    out.push('}');
}

/// Reads the `quantiles` array: one sketch per [`TRACKED_QUANTILES`] entry,
/// in that order, each restorable.
fn read_sketches(reader: &mut Reader<'_>) -> Result<[P2Quantile; 3], String> {
    let mut sketches = Vec::with_capacity(TRACKED_QUANTILES.len());
    reader.begin_array()?;
    while reader.next_item()? {
        if sketches.len() == TRACKED_QUANTILES.len() {
            return Err(format!(
                "expected {} quantile sketches, found more",
                TRACKED_QUANTILES.len()
            ));
        }
        let state = read_sketch(reader)?;
        let expected_q = TRACKED_QUANTILES[sketches.len()];
        if (state.q - expected_q).abs() > 1e-12 {
            return Err(format!(
                "quantile sketch order mismatch: expected q={expected_q}, found q={}",
                state.q
            ));
        }
        sketches.push(P2Quantile::restore(state).ok_or("inconsistent P² sketch state")?);
    }
    let found = sketches.len();
    sketches.try_into().map_err(|_| {
        format!(
            "expected {} quantile sketches, found {found}",
            TRACKED_QUANTILES.len()
        )
    })
}

fn read_sketch(reader: &mut Reader<'_>) -> Result<P2State, String> {
    let (mut q, mut count, mut buffer) = (None, None, None);
    let (mut heights, mut positions, mut desired) = (None, None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "q" if q.is_none() => q = Some(read_f64(reader, "q")?),
            "count" if count.is_none() => count = Some(read_u64(reader, "count")?),
            "heights" if heights.is_none() => heights = Some(read_array5(reader, "heights")?),
            "positions" if positions.is_none() => {
                positions = Some(read_array5(reader, "positions")?);
            }
            "desired" if desired.is_none() => desired = Some(read_array5(reader, "desired")?),
            "buffer" if buffer.is_none() => {
                let mut values = Vec::new();
                reader.begin_array()?;
                while reader.next_item()? {
                    values.push(read_f64(reader, "buffer")?);
                }
                buffer = Some(values);
            }
            _ => {
                reader.value()?;
            }
        }
    }
    Ok(P2State {
        q: require_f64(q, "q")?,
        count: count.ok_or("missing or non-integer `count`")?,
        heights: heights.ok_or("missing `heights` array")?,
        positions: positions.ok_or("missing `positions` array")?,
        desired: desired.ok_or("missing `desired` array")?,
        buffer: buffer.ok_or("sketch has no `buffer`")?,
    })
}

fn read_f64(reader: &mut Reader<'_>, key: &str) -> Result<f64, String> {
    reader
        .value()?
        .as_f64()
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn read_u64(reader: &mut Reader<'_>, key: &str) -> Result<u64, String> {
    reader
        .value()?
        .as_u64()
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn require_f64(value: Option<f64>, key: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn read_array5(reader: &mut Reader<'_>, key: &str) -> Result<[f64; 5], String> {
    let mut values = [0.0; 5];
    let mut len = 0;
    reader.begin_array()?;
    while reader.next_item()? {
        let value = read_f64(reader, key)?;
        *values
            .get_mut(len)
            .ok_or_else(|| format!("`{key}` must have exactly 5 entries"))? = value;
        len += 1;
    }
    if len == values.len() {
        Ok(values)
    } else {
        Err(format!("`{key}` must have exactly 5 entries"))
    }
}

/// A completed sweep cell: its address, spec echo, and per-metric aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's content address ([`crate::ScenarioSpec::hash_hex`]).
    pub hash: String,
    /// The cell's seed point (also its position in the grid).
    pub point: u64,
    /// Trials aggregated into this record.
    pub trials: u32,
    /// Aggregates keyed by metric name (sorted — canonical order).
    pub metrics: BTreeMap<String, MetricAggregate>,
}

impl CellRecord {
    /// Builds a record by folding per-trial metric lists in trial order.
    ///
    /// Every trial must report the same metric names; the fold is sequential
    /// so the result is deterministic.
    #[must_use]
    pub fn from_trials(
        hash: String,
        point: u64,
        trial_metrics: &[Vec<(&'static str, f64)>],
    ) -> Self {
        let mut metrics: BTreeMap<String, MetricAggregate> = BTreeMap::new();
        for trial in trial_metrics {
            for (name, value) in trial {
                metrics
                    .entry((*name).to_string())
                    .or_default()
                    .observe(*value);
            }
        }
        Self {
            hash,
            point,
            trials: u32::try_from(trial_metrics.len()).expect("trials fit in u32"),
            metrics,
        }
    }

    /// One shard-store JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write_json_line(&mut out);
        out
    }

    /// Appends [`CellRecord::to_json_line`]'s text to `out`: the shard
    /// writer and the JSON export splice records through this.
    pub(crate) fn write_json_line(&self, out: &mut String) {
        out.push_str("{\"cell\":");
        write_str(out, &self.hash);
        out.push_str(",\"point\":");
        write_u64(out, self.point);
        out.push_str(",\"trials\":");
        write_u64(out, u64::from(self.trials));
        out.push_str(",\"metrics\":{");
        for (i, (name, aggregate)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, name);
            out.push(':');
            aggregate.write_json(out);
        }
        out.push_str("}}");
    }

    /// Parses one shard-store line.
    ///
    /// Reads the line in one pass without building a JSON tree; it accepts
    /// exactly the lines whose [`crate::json::parse`] tree has the record
    /// schema (unknown keys skipped, the first of duplicate keys winning,
    /// the last of duplicate metric names).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Store`] on malformed JSON or schema drift.
    pub fn from_json_line(line: &str) -> Result<Self, SweepError> {
        let mut reader = Reader::new(line);
        let record = Self::read(&mut reader).and_then(|record| {
            reader.finish()?;
            Ok(record)
        });
        record.map_err(SweepError::Store)
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self, String> {
        let (mut hash, mut point, mut trials, mut metrics) = (None, None, None, None);
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "cell" if hash.is_none() => match reader.value()? {
                    Json::Str(text) => hash = Some(text),
                    _ => return Err("record has no `cell` hash".into()),
                },
                "point" if point.is_none() => point = Some(read_u64(reader, "point")?),
                "trials" if trials.is_none() => trials = Some(read_u64(reader, "trials")?),
                "metrics" if metrics.is_none() => {
                    let mut map = BTreeMap::new();
                    reader
                        .begin_object()
                        .map_err(|_| "record has no `metrics` object")?;
                    while let Some(name) = reader.next_key()? {
                        let aggregate = MetricAggregate::read(reader)?;
                        map.insert(name, aggregate);
                    }
                    metrics = Some(map);
                }
                _ => {
                    reader.value()?;
                }
            }
        }
        Ok(Self {
            hash: hash.ok_or("record has no `cell` hash")?,
            point: point.ok_or("missing or non-integer `point`")?,
            trials: u32::try_from(trials.ok_or("missing or non-integer `trials`")?)
                .map_err(|_| "`trials` does not fit in u32")?,
            metrics: metrics.ok_or("record has no `metrics` object")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_record() -> CellRecord {
        let trials: Vec<Vec<(&'static str, f64)>> = (0..40)
            .map(|t| {
                vec![
                    ("rounds", f64::from(t % 7) + 10.0),
                    ("fraction_correct", 1.0 - f64::from(t) / 100.0),
                    ("all_correct", f64::from(u32::from(t % 3 == 0))),
                ]
            })
            .collect();
        CellRecord::from_trials("00ff00ff00ff00ff".into(), 42, &trials)
    }

    fn round_trip(aggregate: &MetricAggregate) -> MetricAggregate {
        let mut text = String::new();
        aggregate.write_json(&mut text);
        let mut reader = Reader::new(&text);
        let back = MetricAggregate::read(&mut reader).unwrap();
        reader.finish().unwrap();
        back
    }

    #[test]
    fn fold_matches_batch_statistics() {
        let record = demo_record();
        assert_eq!(record.trials, 40);
        let rounds = &record.metrics["rounds"];
        assert_eq!(rounds.moments.count, 40);
        assert_eq!(rounds.moments.min, 10.0);
        assert_eq!(rounds.moments.max, 16.0);
        let values: Vec<f64> = (0..40).map(|t| f64::from(t % 7) + 10.0).collect();
        assert_eq!(rounds.moments.mean(), analysis::mean(&values));
        // The success-rate metric folds to successes/trials exactly.
        let successes = (0..40).filter(|t| t % 3 == 0).count() as f64;
        assert_eq!(record.metrics["all_correct"].moments.sum, successes);
    }

    #[test]
    fn record_round_trips_byte_identically() {
        let record = demo_record();
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed, record);
        // Serializing the parsed record reproduces the original bytes — the
        // property resumable exports depend on.
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn aggregate_round_trips_mid_stream_and_continues_identically() {
        let mut original = MetricAggregate::new();
        for i in 0..23 {
            original.observe(f64::from(i * i % 17));
        }
        let mut restored = round_trip(&original);
        assert_eq!(restored, original);
        for i in 0..50 {
            original.observe(f64::from(i));
            restored.observe(f64::from(i));
        }
        assert_eq!(restored, original);
        // Small-count aggregates (buffer still in play) also round-trip.
        let mut young = MetricAggregate::new();
        young.observe(3.5);
        young.observe(-1.0);
        let back = round_trip(&young);
        assert_eq!(back, young);
    }

    #[test]
    fn small_sample_and_duplicate_aggregates_serialize_exactly() {
        // A cell with fewer than five trials keeps raw observations in the
        // P² buffers; its serialized form must restore to the *identical*
        // aggregate (bit-exact floats via the shortest-round-trip JSON) and
        // re-serialize to the identical line.
        for trials in 1..5usize {
            let rows: Vec<Vec<(&'static str, f64)>> = (0..trials)
                .map(|t| vec![("rounds", 0.1 * t as f64 + 7.0), ("flat", -3.25)])
                .collect();
            let record = CellRecord::from_trials("feed".into(), 1, &rows);
            let line = record.to_json_line();
            let parsed = CellRecord::from_json_line(&line).unwrap();
            assert_eq!(parsed, record, "{trials} trials");
            assert_eq!(parsed.to_json_line(), line, "{trials} trials");
            // Pre-initialisation estimates are the exact interpolation of
            // the buffered values.
            let flat = &parsed.metrics["flat"];
            for q in 0..3 {
                assert_eq!(flat.quantile(q), -3.25);
            }
        }

        // All-duplicate inputs past the P² initialisation point: markers
        // collapse onto the constant and the state still round-trips
        // byte-identically.
        let rows: Vec<Vec<(&'static str, f64)>> = (0..40).map(|_| vec![("c", 42.5)]).collect();
        let record = CellRecord::from_trials("dupe".into(), 2, &rows);
        let line = record.to_json_line();
        let parsed = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_json_line(), line);
        let c = &parsed.metrics["c"];
        assert_eq!(c.moments.min, 42.5);
        assert_eq!(c.moments.max, 42.5);
        assert_eq!(c.moments.mean(), 42.5);
        for q in 0..3 {
            assert_eq!(c.quantile(q), 42.5, "constant stream quantile {q}");
        }
    }

    #[test]
    fn quantile_estimates_are_exposed() {
        let mut agg = MetricAggregate::new();
        for i in 0..=100 {
            agg.observe(f64::from(i));
        }
        assert!((agg.quantile(1) - 50.0).abs() < 6.0, "median ≈ 50");
        assert!(agg.quantile(0) < agg.quantile(1));
        assert!(agg.quantile(1) < agg.quantile(2));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(CellRecord::from_json_line("").is_err());
        assert!(CellRecord::from_json_line("{\"cell\":\"x\"}").is_err());
        assert!(CellRecord::from_json_line("{\"point\":1}").is_err());
        // A truncated (torn) line is a parse error, not a panic.
        let line = demo_record().to_json_line();
        assert!(CellRecord::from_json_line(&line[..line.len() / 2]).is_err());
    }
}
