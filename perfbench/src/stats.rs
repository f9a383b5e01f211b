//! Order statistics and the metric map a run prints.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Named metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.map.insert(name.into(), (value, unit));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|m| m.0)
    }

    /// Iterates (name, value, unit) in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.map.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }

    /// Renders `{"name":{"value":v,"unit":"u"},...}`. Non-finite values
    /// render as 0 so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .map
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("b", 2.0, "s");
        m.set("a", 0.5, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\":{\"value\":0.5,\"unit\":\"ms\"},\"b\":{\"value\":2.0,\"unit\":\"s\"}}"
        );
    }
}
