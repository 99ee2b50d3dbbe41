//! Civil dates and datetimes, with the ISO parsing needed for `git log`.
//!
//! Implemented from scratch (no chrono): the study needs only ordering,
//! month extraction, and day arithmetic — all derivable from the classic
//! days-from-civil algorithm (Howard Hinnant's `chrono`-compatible formulas).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from date construction or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DateError {
    /// Month outside 1..=12 or day outside the month's length.
    /// The what.
    OutOfRange {
        /// What kind of object was involved.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// Text that does not match the expected ISO layout.
    Malformed(String),
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange { what, value } => write!(f, "{what} out of range: {value}"),
            Self::Malformed(s) => write!(f, "malformed date/time: {s:?}"),
        }
    }
}

impl std::error::Error for DateError {}

/// A civil (proleptic Gregorian) calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    /// The year.
    pub year: i32,
    /// The month.
    pub month: u8,
    /// The day.
    pub day: u8,
}

impl Date {
    /// Construct a validated date.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, DateError> {
        if !(1..=12).contains(&month) {
            return Err(DateError::OutOfRange { what: "month", value: month as i64 });
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(DateError::OutOfRange { what: "day", value: day as i64 });
        }
        Ok(Self { year, month, day })
    }

    /// Days since 1970-01-01 (negative before), via the days-from-civil
    /// algorithm.
    pub fn days_from_epoch(&self) -> i64 {
        let y = if self.month <= 2 { self.year as i64 - 1 } else { self.year as i64 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = (self.month as i64 + 9) % 12; // [0, 11], March = 0
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// Inverse of [`days_from_epoch`](Self::days_from_epoch).
    pub fn from_days_from_epoch(days: i64) -> Self {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        let year = if m <= 2 { y + 1 } else { y } as i32;
        Self { year, month: m, day: d }
    }

    /// The date `days` days later (or earlier, if negative).
    pub fn plus_days(&self, days: i64) -> Self {
        Self::from_days_from_epoch(self.days_from_epoch() + days)
    }

    /// Signed day difference `self - other`.
    pub fn days_since(&self, other: &Date) -> i64 {
        self.days_from_epoch() - other.days_from_epoch()
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Result<Self, DateError> {
        let mut parts = s.splitn(3, '-');
        // A leading '-' would make the first part empty; negative years do
        // not occur in git logs, so reject them.
        let y = parse_int(parts.next(), s)?;
        let m = parse_int(parts.next(), s)?;
        let d = parse_int(parts.next(), s)?;
        Date::new(y as i32, m as u8, d as u8).map_err(|_| DateError::Malformed(s.to_string()))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A civil datetime with an optional UTC offset — the shape of
/// `git log --date=iso` output (`2015-06-12 14:33:02 +0200`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DateTime {
    /// The commit timestamp.
    pub date: Date,
    /// The hour.
    pub hour: u8,
    /// The minute.
    pub minute: u8,
    /// The second.
    pub second: u8,
    /// Offset from UTC in minutes (e.g. +0200 → 120). Zero when absent.
    pub utc_offset_minutes: i32,
}

impl DateTime {
    /// Midnight local on the given date.
    pub fn midnight(date: Date) -> Self {
        Self { date, hour: 0, minute: 0, second: 0, utc_offset_minutes: 0 }
    }

    /// Construct a validated datetime.
    pub fn new(date: Date, hour: u8, minute: u8, second: u8) -> Result<Self, DateError> {
        if hour > 23 {
            return Err(DateError::OutOfRange { what: "hour", value: hour as i64 });
        }
        if minute > 59 {
            return Err(DateError::OutOfRange { what: "minute", value: minute as i64 });
        }
        if second > 60 {
            // allow leap second notation
            return Err(DateError::OutOfRange { what: "second", value: second as i64 });
        }
        Ok(Self { date, hour, minute, second, utc_offset_minutes: 0 })
    }

    /// Parse the `--date=iso` git format: `YYYY-MM-DD HH:MM:SS +ZZZZ`, with
    /// the time and offset parts optional (`YYYY-MM-DD` alone is accepted);
    /// also tolerates a `T` separator and a trailing `Z`.
    pub fn parse(s: &str) -> Result<Self, DateError> {
        let s = s.trim();
        let (date_part, rest) = match s.find([' ', 'T']) {
            Some(idx) => (&s[..idx], s[idx + 1..].trim()),
            None => (s, ""),
        };
        let date = Date::parse(date_part)?;
        if rest.is_empty() {
            return Ok(Self::midnight(date));
        }
        let (time_part, offset_part) = match rest.find([' ', '+']) {
            Some(idx) if rest.as_bytes()[idx] == b' ' => (&rest[..idx], rest[idx + 1..].trim()),
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, ""),
        };
        let time_part = time_part.trim_end_matches('Z');
        let mut hms = time_part.splitn(3, ':');
        let h = parse_int(hms.next(), s)?;
        let m = parse_int(hms.next(), s)?;
        let sec = match hms.next() {
            Some(v) => {
                // Tolerate fractional seconds.
                let v = v.split('.').next().unwrap_or("0");
                v.parse::<i64>().map_err(|_| DateError::Malformed(s.to_string()))?
            }
            None => 0,
        };
        let mut dt = Self::new(date, h as u8, m as u8, sec as u8)?;
        if !offset_part.is_empty() {
            dt.utc_offset_minutes = parse_offset(offset_part, s)?;
        }
        Ok(dt)
    }

    /// Seconds since the Unix epoch, ignoring leap seconds, adjusted to UTC.
    pub fn unix_seconds(&self) -> i64 {
        let days = self.date.days_from_epoch();
        days * 86_400 + self.hour as i64 * 3_600 + self.minute as i64 * 60 + self.second as i64
            - self.utc_offset_minutes as i64 * 60
    }
}

impl PartialOrd for DateTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DateTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.unix_seconds().cmp(&other.unix_seconds())
    }
}

impl DateTime {
    /// Call `f` with this datetime's [`Display`](fmt::Display) text,
    /// written without the formatter or an allocation when it fits the
    /// fixed `YYYY-MM-DD HH:MM:SS ±ZZZZ` layout.
    pub fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self.iso_bytes() {
            Some(b) => f(std::str::from_utf8(&b).expect("ASCII digits")),
            None => f(&self.to_string()),
        }
    }

    /// The fixed-layout text; `None` when a field does not fit the layout
    /// (a year outside 0..=9999, a field of three or more digits), which
    /// only `Display`'s general formatting spells.
    fn iso_bytes(&self) -> Option<[u8; 25]> {
        let Date { year, month, day } = self.date;
        let off = self.utc_offset_minutes.unsigned_abs();
        if !(0..=9999).contains(&year)
            || [month, day, self.hour, self.minute, self.second].into_iter().any(|n| n > 99)
            || off / 60 > 99
        {
            return None;
        }
        let mut b = *b"0000-00-00 00:00:00 +0000";
        let mut put = |at: usize, n: u32| {
            b[at] = b'0' + (n / 10) as u8;
            b[at + 1] = b'0' + (n % 10) as u8;
        };
        let year = year as u32;
        put(0, year / 100);
        put(2, year % 100);
        put(5, month.into());
        put(8, day.into());
        put(11, self.hour.into());
        put(14, self.minute.into());
        put(17, self.second.into());
        put(21, off / 60);
        put(23, off % 60);
        if self.utc_offset_minutes < 0 {
            b[20] = b'-';
        }
        Some(b)
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(b) = self.iso_bytes() {
            return f.write_str(std::str::from_utf8(&b).expect("ASCII digits"));
        }
        let off = self.utc_offset_minutes;
        let sign = if off < 0 { '-' } else { '+' };
        let a = off.unsigned_abs();
        write!(
            f,
            "{} {:02}:{:02}:{:02} {}{:02}{:02}",
            self.date,
            self.hour,
            self.minute,
            self.second,
            sign,
            a / 60,
            a % 60
        )
    }
}

/// Days in the given month, accounting for leap years.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Gregorian leap-year rule.
pub fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn parse_int(part: Option<&str>, whole: &str) -> Result<i64, DateError> {
    part.ok_or_else(|| DateError::Malformed(whole.to_string()))?
        .parse::<i64>()
        .map_err(|_| DateError::Malformed(whole.to_string()))
}

fn parse_offset(s: &str, whole: &str) -> Result<i32, DateError> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return Ok(0);
    }
    let (sign, digits) = match bytes[0] {
        b'+' => (1, &s[1..]),
        b'-' => (-1, &s[1..]),
        _ => (1, s),
    };
    // Accept "+0200", "+02:00", "+02": the digits with every ':' dropped,
    // read without allocating (a git log has one date per commit).
    let malformed = || DateError::Malformed(whole.to_string());
    let (mut v, mut len) = (0i32, 0usize);
    for b in digits.bytes().filter(|&b| b != b':') {
        if !b.is_ascii_digit() {
            return Err(malformed());
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add(i32::from(b - b'0')))
            .ok_or_else(malformed)?;
        len += 1;
    }
    if len == 0 {
        return Err(malformed());
    }
    let (h, m) = if len <= 2 { (v, 0) } else { (v / 100, v % 100) };
    Ok(sign * (h * 60 + m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).unwrap().days_from_epoch(), 0);
        assert_eq!(Date::new(1970, 1, 2).unwrap().days_from_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().days_from_epoch(), -1);
    }

    #[test]
    fn known_dates() {
        // 2000-03-01 is day 11017.
        assert_eq!(Date::new(2000, 3, 1).unwrap().days_from_epoch(), 11017);
        // Unix billennium: 2001-09-09 (1e9 seconds / 86400 = 11574 days).
        assert_eq!(Date::new(2001, 9, 9).unwrap().days_from_epoch(), 11574);
    }

    #[test]
    fn round_trip_days() {
        for days in [-100_000i64, -1, 0, 1, 365, 10_000, 20_000, 100_000] {
            let d = Date::from_days_from_epoch(days);
            assert_eq!(d.days_from_epoch(), days, "{d}");
        }
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2024));
        assert!(!is_leap(2023));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2023, 2), 28);
        assert_eq!(days_in_month(2023, 4), 30);
        assert_eq!(days_in_month(2023, 12), 31);
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(Date::new(2023, 13, 1).is_err());
        assert!(Date::new(2023, 0, 1).is_err());
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(2024, 2, 29).is_ok());
        assert!(Date::new(2023, 4, 31).is_err());
    }

    #[test]
    fn date_parsing() {
        assert_eq!(Date::parse("2015-06-12").unwrap(), Date::new(2015, 6, 12).unwrap());
        assert!(Date::parse("2015-6").is_err());
        assert!(Date::parse("not-a-date").is_err());
        assert!(Date::parse("2015-13-01").is_err());
    }

    #[test]
    fn git_iso_datetime_parsing() {
        let dt = DateTime::parse("2015-06-12 14:33:02 +0200").unwrap();
        assert_eq!(dt.date, Date::new(2015, 6, 12).unwrap());
        assert_eq!((dt.hour, dt.minute, dt.second), (14, 33, 2));
        assert_eq!(dt.utc_offset_minutes, 120);
    }

    #[test]
    fn datetime_variants() {
        assert!(DateTime::parse("2015-06-12").is_ok());
        assert!(DateTime::parse("2015-06-12T14:33:02Z").is_ok());
        assert!(DateTime::parse("2015-06-12 14:33:02 -0530").is_ok());
        let dt = DateTime::parse("2015-06-12 14:33:02 -0530").unwrap();
        assert_eq!(dt.utc_offset_minutes, -330);
        assert!(DateTime::parse("garbage").is_err());
    }

    #[test]
    fn offset_spellings() {
        let off = |s: &str| DateTime::parse(s).map(|dt| dt.utc_offset_minutes);
        assert_eq!(off("2015-06-12 14:33:02 +02:00"), Ok(120));
        assert_eq!(off("2015-06-12 14:33:02 +02"), Ok(120));
        assert_eq!(off("2015-06-12 14:33:02 -05:30"), Ok(-330));
        for bad in ["+", "+:", "+0a00", "+99999999999"] {
            assert!(off(&format!("2015-06-12 14:33:02 {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn datetime_ordering_respects_offset() {
        // 14:00 +0200 is 12:00 UTC; 13:00 +0000 is 13:00 UTC.
        let a = DateTime::parse("2015-06-12 14:00:00 +0200").unwrap();
        let b = DateTime::parse("2015-06-12 13:00:00 +0000").unwrap();
        assert!(a < b);
    }

    #[test]
    fn datetime_display_round_trips() {
        let dt = DateTime::parse("2015-06-12 14:33:02 +0200").unwrap();
        let dt2 = DateTime::parse(&dt.to_string()).unwrap();
        assert_eq!(dt, dt2);
        let neg = DateTime::parse("2015-06-12 14:33:02 -0700").unwrap();
        assert_eq!(DateTime::parse(&neg.to_string()).unwrap(), neg);
    }

    /// The general `write!` spelling the fixed layout replaced.
    fn formatted(dt: &DateTime) -> String {
        let off = dt.utc_offset_minutes;
        let sign = if off < 0 { '-' } else { '+' };
        let a = off.unsigned_abs();
        format!(
            "{} {:02}:{:02}:{:02} {}{:02}{:02}",
            dt.date,
            dt.hour,
            dt.minute,
            dt.second,
            sign,
            a / 60,
            a % 60
        )
    }

    #[test]
    fn fixed_layout_equals_the_formatter() {
        let years =
            [0, 1, 999, 1000, 1970, 2015, 9999, 10000, 123_456, -1, -999, -1000, -10000];
        let offsets = [0, -30, 840, -720, 120, -330, 59, 5999, 6000, -6000, i32::MIN, i32::MAX];
        let times = [(0, 0, 0), (9, 5, 7), (23, 59, 60), (99, 99, 99), (100, 0, 255)];
        for year in years {
            for (month, day) in [(1, 1), (2, 29), (12, 31), (100, 7)] {
                for offset in offsets {
                    for (hour, minute, second) in times {
                        let dt = DateTime {
                            date: Date { year, month, day },
                            hour,
                            minute,
                            second,
                            utc_offset_minutes: offset,
                        };
                        let want = formatted(&dt);
                        assert_eq!(dt.to_string(), want);
                        assert_eq!(dt.with_text(str::to_string), want);
                        let fixed = (0..=9999).contains(&year)
                            && month < 100
                            && day < 100
                            && hour < 100
                            && minute < 100
                            && second < 100
                            && offset.unsigned_abs() / 60 < 100;
                        match dt.iso_bytes() {
                            Some(b) => {
                                assert!(fixed, "{want}");
                                assert_eq!(&b[..], want.as_bytes());
                            }
                            None => assert!(!fixed, "{want}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plus_days_crosses_boundaries() {
        let d = Date::new(2023, 12, 31).unwrap();
        assert_eq!(d.plus_days(1), Date::new(2024, 1, 1).unwrap());
        assert_eq!(d.plus_days(60), Date::new(2024, 2, 29).unwrap());
        assert_eq!(d.plus_days(-365), Date::new(2022, 12, 31).unwrap());
    }

    #[test]
    fn days_since() {
        let a = Date::new(2024, 3, 1).unwrap();
        let b = Date::new(2024, 2, 1).unwrap();
        assert_eq!(a.days_since(&b), 29);
        assert_eq!(b.days_since(&a), -29);
    }

    #[test]
    fn unix_seconds_known_value() {
        // 2001-09-09 01:46:40 UTC == 1_000_000_000.
        let dt = DateTime::parse("2001-09-09 01:46:40 +0000").unwrap();
        assert_eq!(dt.unix_seconds(), 1_000_000_000);
    }
}
