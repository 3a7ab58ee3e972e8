//! One worker process's measurements, handed to the controller as text
//! lines on the worker's stdout.

use std::collections::BTreeMap;

/// Values, output digests, operation count and failed checks of one
/// worker run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Sample {
    /// Named measurements (metric name → value).
    pub values: BTreeMap<String, f64>,
    /// Named output digests; every run of one workload and seed must
    /// agree on them.
    pub digests: BTreeMap<String, String>,
    /// Operations attempted (experiments, engine runs, sweep points).
    pub ops: u64,
    /// Correctness checks that failed, one message each.
    pub failures: Vec<String>,
}

impl Sample {
    /// Records measurement `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every metric is a finite number.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name.to_string(), value);
    }

    /// Records output digest `name`.
    pub fn digest(&mut self, name: &str, hex: &str) {
        self.digests.insert(name.to_string(), hex.to_string());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    /// The line encoding the controller parses back with [`Sample::parse`].
    pub fn encode(&self) -> String {
        let mut s = format!("ops {}\n", self.ops);
        for (k, v) in &self.values {
            s.push_str(&format!("value {k} {v}\n"));
        }
        for (k, v) in &self.digests {
            s.push_str(&format!("digest {k} {v}\n"));
        }
        for f in &self.failures {
            s.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        s
    }

    /// Parses [`Sample::encode`] output.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut sample = Sample::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed worker line `{line}`");
            match kind {
                "ops" => sample.ops = rest.parse().map_err(|_| bad())?,
                "value" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    sample.set(k, v.parse().map_err(|_| bad())?);
                }
                "digest" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    sample.digest(k, v);
                }
                "fail" => sample.failures.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips() {
        let mut s = Sample {
            ops: 48,
            ..Sample::default()
        };
        s.set("wall_s", 1.234_567_890_123);
        s.set("ooo.insts", 72_000_000.0);
        s.digest("engines", "00ff");
        s.check(false, || "two\nlines".to_string());
        s.check(true, || unreachable!());
        let back = Sample::parse(&s.encode()).expect("parses");
        assert_eq!(back.values, s.values);
        assert_eq!(back.digests, s.digests);
        assert_eq!(back.ops, 48);
        assert_eq!(back.failures, vec!["two lines".to_string()]);
        assert!(Sample::parse("bogus line").is_err());
    }
}
