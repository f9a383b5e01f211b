//! Snapshot save/load for the telemetry types.
//!
//! Telemetry is part of a session's dynamic state: restore==continuous
//! must hold for timelines and span logs too, so a mid-run snapshot
//! carries every sample emitted so far *and* the sampler's cursor (next
//! boundary, delta baselines). Each type implements
//! [`picos_trace::snap::Snap`]; the span types' impls live in
//! [`crate::span`].

use crate::{SeriesKind, SeriesSpec, Timeline, WindowSampler};
use picos_trace::snap::{Dec, Enc, Snap, SnapError};
use picos_trace::Value;

picos_trace::snap_enum!(SeriesKind {
    0 => Gauge,
    1 => Delta,
});
picos_trace::snap_struct!(SeriesSpec { name, kind });

/// The full timeline: series specs and all samples.
impl Snap for Timeline {
    fn save(&self) -> Value {
        Enc::new()
            .put(&self.window)
            .put(&self.series)
            .put(&self.starts)
            .put(&self.ends)
            .put(&self.values)
            .done()
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        let mut d = Dec::new(v, "timeline")?;
        let tl = Timeline {
            window: d.get()?,
            series: d.get()?,
            starts: d.get()?,
            ends: d.get()?,
            values: d.get()?,
        };
        if tl.window == 0 {
            return Err(SnapError::new("timeline: zero window"));
        }
        if tl.starts.len() != tl.ends.len() || tl.values.len() != tl.starts.len() * tl.series.len()
        {
            return Err(SnapError::new("timeline: sample table shape mismatch"));
        }
        Ok(tl)
    }
}

/// The sampler mid-run: the samples emitted so far plus the cursor state
/// a continuation needs (next boundary, delta baselines).
impl Snap for WindowSampler {
    fn save(&self) -> Value {
        Enc::new()
            .put(&self.next)
            .put(&self.timeline)
            .put(&self.last)
            .done()
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        let mut d = Dec::new(v, "sampler")?;
        let next = d.get()?;
        let timeline: Timeline = d.get()?;
        let n = timeline.series.len();
        Ok(WindowSampler {
            window: timeline.window,
            next,
            last: d.table("delta baseline", n)?,
            timeline,
            scratch: vec![0; n],
            row: vec![0; n],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_roundtrip_continues_identically() {
        let series = vec![SeriesSpec::gauge("occ"), SeriesSpec::delta("busy")];
        let mut a = WindowSampler::new(10, series.clone());
        a.advance(25, |v| {
            v[0] = 3;
            v[1] = 17;
        });

        let mut b = WindowSampler::load(&a.save()).unwrap();
        // Drive both through the same tail; the finished timelines must be
        // bit-equal (restore==continuous for telemetry).
        let drive = |s: &mut WindowSampler| {
            s.advance(41, |v| {
                v[0] = 5;
                v[1] = 23;
            });
        };
        drive(&mut a);
        drive(&mut b);
        let ta = a.finish(47, |v| {
            v[0] = 1;
            v[1] = 30;
        });
        let tb = b.finish(47, |v| {
            v[0] = 1;
            v[1] = 30;
        });
        assert_eq!(ta, tb);
        assert_eq!(tb.column("busy").unwrap().iter().sum::<u64>(), 30);
    }

    #[test]
    fn timeline_shape_mismatch_rejected() {
        let mut tl = Timeline::new(5, vec![SeriesSpec::gauge("a")]);
        tl.push_sample(0, 5, &[1]);
        let mut v = tl.save();
        // Corrupt the values column length.
        if let Value::Arr(items) = &mut v {
            items[4] = Value::Arr(vec![]);
        }
        assert!(Timeline::load(&v).is_err());
    }
}
