//! Order statistics over measured samples.

/// Nearest-rank percentile (`pct` in 0..=100) of unsorted samples; 0 for
/// no samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Requests per chunk of [`Chunked`]. A chunk's p99 has 50 samples beyond
/// it, so one host stall, which delays a handful of consecutive requests,
/// does not move it.
pub const CHUNK: usize = 5000;

/// Latency and throughput of a request stream, steadied against the
/// slow stretches a shared host imposes now and then: requests are taken
/// in consecutive chunks of [`CHUNK`] as they complete, each chunk gives
/// its p50, its p99 and its rate, and the run reports the median chunk's
/// — the figures of a typical stretch of the run. Memory stays at one
/// chunk, so the samples never show in the run's peak RSS.
pub struct Chunked {
    lat_us: Vec<f64>,
    chunk_start_s: f64,
    last_s: f64,
    p50: Vec<f64>,
    p99: Vec<f64>,
    rate: Vec<f64>,
}

/// What [`Chunked`] reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkSummary {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Completions per second.
    pub qps: f64,
}

impl Chunked {
    /// Completion times count in seconds from the stream's start.
    pub fn new() -> Chunked {
        Chunked {
            lat_us: Vec::with_capacity(CHUNK),
            chunk_start_s: 0.0,
            last_s: 0.0,
            p50: Vec::new(),
            p99: Vec::new(),
            rate: Vec::new(),
        }
    }

    /// One completed request: its latency and when it completed.
    pub fn push(&mut self, lat_us: f64, done_s: f64) {
        self.lat_us.push(lat_us);
        self.last_s = done_s;
        if self.lat_us.len() == CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.p50.push(percentile(&self.lat_us, 50.0));
        self.p99.push(percentile(&self.lat_us, 99.0));
        self.rate.push(ratio(
            self.lat_us.len() as f64,
            self.last_s - self.chunk_start_s,
        ));
        self.chunk_start_s = self.last_s;
        self.lat_us.clear();
    }

    /// The median chunk's figures. A partial last chunk counts only when
    /// there is no full one.
    pub fn finish(mut self) -> ChunkSummary {
        if self.p50.is_empty() && !self.lat_us.is_empty() {
            self.flush();
        }
        ChunkSummary {
            p50_us: median(&self.p50),
            p99_us: median(&self.p99),
            qps: median(&self.rate),
        }
    }
}

impl Default for Chunked {
    fn default() -> Self {
        Chunked::new()
    }
}

/// Median of unsorted samples (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so the compare command reads spreads the same way the
/// acceptance check does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * (n + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let delta = pos - j as f64;
        *q = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    }
}
