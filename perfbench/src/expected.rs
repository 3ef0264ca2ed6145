//! Counters recorded for a few seeds in `expected.tsv`. A run at a
//! recorded seed must reproduce every one of them exactly.

use crate::workload::Outcome;

/// The recorded counters, compiled in.
const RECORDED: &str = include_str!("../expected.tsv");

/// The deterministic counters of one pass, as recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Service cycles.
    pub cycles: u64,
    /// Stream services.
    pub services: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Fig. 5 deferrals.
    pub deferred: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// `f64::to_bits` of the peak buffer memory in bits.
    pub peak_bits: u64,
}

impl Counters {
    /// The counters of `out`.
    #[must_use]
    pub fn of(out: &Outcome) -> Self {
        Counters {
            cycles: out.cycles,
            services: out.services,
            admitted: out.admitted,
            deferred: out.deferred,
            rejected: out.rejected,
            peak_bits: out.peak_bits.to_bits(),
        }
    }

    /// One `expected.tsv` line for `(workload, seed, cell)`.
    #[must_use]
    pub fn line(&self, workload: &str, seed: u64, cell: &str) -> String {
        format!(
            "{workload}\t{seed}\t{cell}\t{}\t{}\t{}\t{}\t{}\t{:#018x}",
            self.cycles, self.services, self.admitted, self.deferred, self.rejected, self.peak_bits
        )
    }
}

fn parse_line(line: &str) -> Result<(&str, u64, &str, Counters), String> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 9 {
        return Err(format!("expected 9 fields, got {}", f.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        f[i].parse()
            .map_err(|e| format!("field {} ({:?}): {e}", i + 1, f[i]))
    };
    let peak = f[8].strip_prefix("0x").ok_or("peak bits must be 0x-hex")?;
    let peak_bits = u64::from_str_radix(peak, 16).map_err(|e| format!("peak bits: {e}"))?;
    Ok((
        f[0],
        num(1)?,
        f[2],
        Counters {
            cycles: num(3)?,
            services: num(4)?,
            admitted: num(5)?,
            deferred: num(6)?,
            rejected: num(7)?,
            peak_bits,
        },
    ))
}

/// The recorded counters of `(workload, seed, cell)`, if that seed was
/// recorded.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn lookup(workload: &str, seed: u64, cell: &str) -> Result<Option<Counters>, String> {
    for (n, line) in RECORDED.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (w, s, c, counters) =
            parse_line(line).map_err(|e| format!("expected.tsv line {}: {e}", n + 1))?;
        if w == workload && s == seed && c == cell {
            return Ok(Some(counters));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_recorded_line_parses() {
        for line in RECORDED.lines() {
            if !line.is_empty() && !line.starts_with('#') {
                parse_line(line).expect("recorded line parses");
            }
        }
    }

    #[test]
    fn a_line_round_trips() {
        let c = Counters {
            cycles: 1,
            services: 2,
            admitted: 3,
            deferred: 4,
            rejected: 5,
            peak_bits: 1.5f64.to_bits(),
        };
        let line = c.line("w", 7, "rr/theta0");
        assert_eq!(parse_line(&line), Ok(("w", 7, "rr/theta0", c)));
    }
}
