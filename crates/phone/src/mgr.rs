//! PhoneMgr: selection, task submission and performance measurement.
//!
//! # Grade-indexed availability
//!
//! Fleet queries on the task-plan path — [`PhoneMgr::select`],
//! [`PhoneMgr::available`], [`PhoneMgr::count`],
//! [`PhoneMgr::effective_profile`] — are answered from an incremental
//! per-`(grade, provenance)` index (the private `index` module) instead of
//! rescanning the fleet, so planning a task costs O(k log F) in the number
//! of phones it touches, not O(F) in the fleet size. The index is
//! maintained on every state transition the manager performs
//! (registration, retirement, run submission, crash, reboot, profile
//! change); raw mutations through [`PhoneMgr::phone_mut`] are tracked as
//! dirty and re-indexed on the next query. Debug builds cross-check every
//! synced query against a full rescan.
//!
//! Availability is time-dependent (runs end, crashes strike), so index
//! queries assume a non-decreasing `now` — the discrete-event platform's
//! natural clock discipline. `select` re-verifies candidates against
//! device state regardless, so a violated assumption can under-report
//! availability but never hand out a busy phone.

// Reviewed interior-mutability exception (clippy mirror of simlint P2):
// the lazy fleet index memoises on the `&self` read path of a
// single-threaded manager; parallel workers only ever see plain-data
// `FleetSegment` inputs, so no worker-reachable code touches this cell.
#[allow(clippy::disallowed_types)]
use std::cell::RefCell;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simdc_simrt::TimeSeries;
use simdc_types::{DeviceGrade, PerGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError};

use crate::device::{PhoneDevice, Provenance};
use crate::index::FleetIndex;
use crate::measure::{
    aggregate_stages, parse_current_ua, parse_pss_kb, parse_top_cpu, parse_voltage_mv,
    parse_wlan_bytes, PerfReport, PerfSample,
};
use crate::profile::PhoneProfile;
use crate::stage::{RunPlan, Stage};
use crate::TRAIN_PROCESS;

/// Fleet composition used by [`PhoneMgr::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Local phones per grade.
    pub local: PerGrade<usize>,
    /// Remote MSP phones per grade.
    pub msp: PerGrade<usize>,
}

impl FleetSpec {
    /// The paper's default cluster (§VI-A): 10 local (4 High / 6 Low) and
    /// 20 MSP (13 High / 7 Low) phones.
    #[must_use]
    pub fn paper_default() -> Self {
        FleetSpec {
            local: PerGrade::from_parts(4, 6),
            msp: PerGrade::from_parts(13, 7),
        }
    }

    /// The paper's fleet composition scaled to `total` phones (ratios
    /// 4:6:13:7 local-High : local-Low : MSP-High : MSP-Low), with any
    /// rounding remainder absorbed by the MSP-Low pool. The scale
    /// scenarios build 100k–1M-phone fleets this way.
    #[must_use]
    pub fn scaled_paper(total: usize) -> Self {
        let part = |num: usize| total * num / 30;
        let (lh, ll, mh) = (part(4), part(6), part(13));
        FleetSpec {
            local: PerGrade::from_parts(lh, ll),
            msp: PerGrade::from_parts(mh, total - lh - ll - mh),
        }
    }

    /// Total phones across grades and provenances.
    #[must_use]
    pub fn total(&self) -> usize {
        DeviceGrade::ALL
            .iter()
            .map(|&g| self.local.get(g) + self.msp.get(g))
            .sum()
    }

    /// The fleet as contiguous id-range segments in registration order
    /// (every Local grade, then every MSP grade — the exact order
    /// [`PhoneMgr::with_fleet`] registers phones). Each segment is an
    /// independent unit of work for parallel fleet construction: building
    /// the segments in any order and concatenating them by `start` yields
    /// the same fleet `with_fleet` builds one phone at a time.
    #[must_use]
    pub fn segments(&self) -> Vec<FleetSegment> {
        let mut out = Vec::with_capacity(2 * DeviceGrade::COUNT);
        let mut next_id = 0u32;
        let mut push = |grade: DeviceGrade, provenance: Provenance, count: usize| {
            if count > 0 {
                out.push(FleetSegment {
                    start: next_id,
                    count,
                    grade,
                    provenance,
                });
                next_id += count as u32;
            }
        };
        for grade in DeviceGrade::ALL {
            push(grade, Provenance::Local, *self.local.get(grade));
        }
        for grade in DeviceGrade::ALL {
            push(grade, Provenance::Msp, *self.msp.get(grade));
        }
        out
    }
}

/// One contiguous run of same-`(grade, provenance)` phone ids inside a
/// [`FleetSpec`]'s registration order — the unit of parallel fleet
/// construction. Produced by [`FleetSpec::segments`]; built into devices by
/// [`FleetSegment::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSegment {
    /// First phone id in the segment.
    pub start: u32,
    /// Number of phones.
    pub count: usize,
    /// Grade of every phone in the segment.
    pub grade: DeviceGrade,
    /// Provenance of every phone in the segment.
    pub provenance: Provenance,
}

impl FleetSegment {
    /// Builds the segment's devices — a pure function of `(self, seed)`,
    /// safe to run on any thread. Model strings and per-phone rng seeding
    /// match [`PhoneMgr::with_fleet`] exactly (which is itself built on
    /// this function, so the two cannot drift).
    #[must_use]
    pub fn build(&self, seed: u64) -> Vec<PhoneDevice> {
        let prefix = match self.provenance {
            Provenance::Local => "l",
            Provenance::Msp => "m",
        };
        (0..self.count as u32)
            .map(|i| {
                let id = PhoneId(self.start + i);
                let model = format!("simphone-{prefix}{}", id.0);
                PhoneDevice::new(id, model, self.grade, self.provenance, seed)
            })
            .collect()
    }

    /// Splits the segment into chunks of at most `chunk` phones, keeping
    /// id order — the fan-out step for parallel construction.
    #[must_use]
    pub fn chunked(&self, chunk: usize) -> Vec<FleetSegment> {
        let chunk = chunk.max(1);
        let mut out = Vec::with_capacity(self.count.div_ceil(chunk));
        let mut offset = 0usize;
        while offset < self.count {
            let count = chunk.min(self.count - offset);
            out.push(FleetSegment {
                start: self.start + offset as u32,
                count,
                ..*self
            });
            offset += count;
        }
        out
    }
}

/// The phone-device management module (§IV-C).
///
/// PhoneMgr owns the physical device cluster, selects phones for tasks,
/// submits run plans, and — for benchmarking devices — periodically
/// executes the paper's ADB command battery, post-processes the output and
/// aggregates it into Table-I-style reports.
#[derive(Debug)]
pub struct PhoneMgr {
    phones: Vec<PhoneDevice>,
    /// O(1) id → slot lookup (slots are stable except across `retire`,
    /// which swap-removes and patches the moved phone's entry).
    by_id: BTreeMap<PhoneId, usize>,
    poll_interval: SimDuration,
    /// Incremental availability index; interior mutability keeps the
    /// read-path API (`select`, `available`, `effective_profile`) on
    /// `&self` while the index syncs lazily. Reviewed P2 exception —
    /// see the comment on the `RefCell` import.
    #[allow(clippy::disallowed_types)]
    index: RefCell<FleetIndex>,
}

impl PhoneMgr {
    /// Creates an empty manager polling benchmark devices every
    /// `poll_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `poll_interval` is zero.
    #[must_use]
    #[allow(clippy::disallowed_types)] // reviewed: see the `RefCell` import
    pub fn new(poll_interval: SimDuration) -> Self {
        assert!(!poll_interval.is_zero(), "poll interval must be positive");
        PhoneMgr {
            phones: Vec::new(),
            by_id: BTreeMap::new(),
            poll_interval,
            index: RefCell::new(FleetIndex::default()),
        }
    }

    /// Builds the paper's default fleet with a 1 s polling interval.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self::with_fleet(FleetSpec::paper_default(), SimDuration::from_secs(1), seed)
    }

    /// Builds a fleet from an explicit composition by materializing each
    /// registration-order segment in turn (see [`FleetSpec::segments`]).
    #[must_use]
    pub fn with_fleet(spec: FleetSpec, poll_interval: SimDuration, seed: u64) -> Self {
        let phones = spec
            .segments()
            .iter()
            .flat_map(|seg| seg.build(seed))
            .collect();
        Self::from_prebuilt(phones, poll_interval).expect("segment ids cannot collide")
    }

    /// Assembles a manager from devices built elsewhere — the join step of
    /// parallel fleet construction. `phones` must arrive in registration
    /// order (concatenated [`FleetSegment::build`] outputs sorted by
    /// `start`) for the fleet to be indistinguishable from a
    /// [`PhoneMgr::with_fleet`] build.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` on a duplicate phone id.
    pub fn from_prebuilt(phones: Vec<PhoneDevice>, poll_interval: SimDuration) -> Result<Self> {
        let mut mgr = PhoneMgr::new(poll_interval);
        for phone in phones {
            mgr.register(phone)?;
        }
        Ok(mgr)
    }

    /// Registers a phone.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` on a duplicate id.
    pub fn register(&mut self, phone: PhoneDevice) -> Result<()> {
        if self.by_id.contains_key(&phone.id()) {
            return Err(SimdcError::InvalidConfig(format!(
                "duplicate phone id {}",
                phone.id()
            )));
        }
        self.by_id.insert(phone.id(), self.phones.len());
        self.index.get_mut().note_registered(&phone);
        self.phones.push(phone);
        Ok(())
    }

    /// Retires a phone from the fleet (decommissioned or returned to the
    /// MSP), removing it from every availability structure. Any assigned
    /// run is abandoned with it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn retire(&mut self, id: PhoneId) -> Result<PhoneDevice> {
        let slot = *self
            .by_id
            .get(&id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        let phone = self.phones.swap_remove(slot);
        self.by_id.remove(&id);
        if let Some(moved) = self.phones.get(slot) {
            self.by_id.insert(moved.id(), slot);
        }
        self.index.get_mut().note_retired(&phone);
        Ok(phone)
    }

    /// The polling interval for benchmark measurement.
    #[must_use]
    pub fn poll_interval(&self) -> SimDuration {
        self.poll_interval
    }

    /// Total registered phones.
    #[must_use]
    pub fn total(&self) -> usize {
        self.phones.len()
    }

    /// All phones.
    #[must_use]
    pub fn phones(&self) -> &[PhoneDevice] {
        &self.phones
    }

    /// A phone by id.
    #[must_use]
    pub fn phone(&self, id: PhoneId) -> Option<&PhoneDevice> {
        self.by_id.get(&id).map(|&slot| &self.phones[slot])
    }

    /// Mutable access to a phone by id.
    ///
    /// The phone is marked dirty in the availability index and re-derived
    /// on the next fleet query, so arbitrary mutations (crash injection,
    /// profile swaps, run clearing) stay visible to `select`/`available`
    /// without dedicated hooks. Prefer the explicit manager APIs
    /// ([`PhoneMgr::inject_crash`], [`PhoneMgr::reboot`],
    /// [`PhoneMgr::set_phone_profile`]) where one exists.
    pub fn phone_mut(&mut self, id: PhoneId) -> Option<&mut PhoneDevice> {
        let slot = *self.by_id.get(&id)?;
        self.index.get_mut().mark_dirty(id);
        Some(&mut self.phones[slot])
    }

    /// Internal mutable access that does *not* dirty the index — for
    /// operations that cannot change availability (measurement RNG draws)
    /// or that re-index explicitly afterwards.
    fn device_mut(&mut self, id: PhoneId) -> Option<&mut PhoneDevice> {
        let slot = *self.by_id.get(&id)?;
        Some(&mut self.phones[slot])
    }

    /// Re-indexes one phone after a manager-performed mutation.
    fn touch(&mut self, id: PhoneId) {
        let slot = self.by_id[&id];
        let Self { phones, index, .. } = self;
        index.get_mut().touch(&phones[slot]);
    }

    /// Drains due availability transitions and dirty phones up to `now`,
    /// then (debug builds) asserts the index matches a full rescan.
    fn sync_index(&self, now: SimInstant) {
        let mut idx = self.index.borrow_mut();
        idx.sync(now, &self.phones, &self.by_id);
        #[cfg(debug_assertions)]
        idx.assert_parity(&self.phones);
    }

    /// Takes a phone offline (ADB unreachable) from `at` on, until
    /// [`PhoneMgr::reboot`]. `at` may lie in the future; the index flips
    /// the phone to unavailable exactly when the clock reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn inject_crash(&mut self, id: PhoneId, at: SimInstant) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .inject_crash(at);
        self.touch(id);
        Ok(())
    }

    /// Reboots a crashed phone: clears the crash state and any stale run,
    /// making the device selectable again immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn reboot(&mut self, id: PhoneId) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .reboot();
        self.touch(id);
        Ok(())
    }

    /// Replaces a phone's behaviour profile, keeping the per-grade
    /// effective-profile sums exact.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids and
    /// propagates profile validation errors.
    pub fn set_phone_profile(&mut self, id: PhoneId, profile: PhoneProfile) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .set_profile(profile)?;
        self.touch(id);
        Ok(())
    }

    /// Number of phones of `grade` (optionally filtered by provenance).
    /// O(1) from the registration totals.
    #[must_use]
    pub fn count(&self, grade: DeviceGrade, provenance: Option<Provenance>) -> usize {
        self.index.borrow().total(grade, provenance)
    }

    /// The *effective* behaviour profile of a grade: the nominal grade
    /// profile with training and startup durations averaged over the
    /// actual fleet. With a uniform fleet this equals
    /// [`PhoneProfile::for_grade`]; once stragglers slow individual
    /// phones down, the effective durations stretch accordingly — which is
    /// what makes fleet perturbations visible to task execution times.
    ///
    /// Returns `None` when the fleet holds no phone of `grade` (drained by
    /// churn or never provisioned) — there is no device whose behaviour
    /// the profile could describe. O(1) from the per-grade running sums.
    #[must_use]
    pub fn try_effective_profile(&self, grade: DeviceGrade) -> Option<PhoneProfile> {
        self.sync_index(SimInstant::EPOCH); // flush dirty profile changes
        let sums = self.index.borrow().sums(grade);
        if sums.n == 0 {
            return None;
        }
        let mut profile = PhoneProfile::for_grade(grade);
        profile.train_duration = SimDuration::from_secs_f64(sums.train_secs / f64::from(sums.n));
        profile.framework_startup =
            SimDuration::from_secs_f64(sums.startup_secs / f64::from(sums.n));
        Some(profile)
    }

    /// [`PhoneMgr::try_effective_profile`], falling back to the nominal
    /// paper profile for a grade with no registered phones. Callers that
    /// must not plan against a phantom fleet should use the `try_` variant
    /// and surface the `None`.
    #[must_use]
    pub fn effective_profile(&self, grade: DeviceGrade) -> PhoneProfile {
        self.try_effective_profile(grade)
            .unwrap_or_else(|| PhoneProfile::for_grade(grade))
    }

    /// Phones of `grade` idle (and healthy) at `now`. O(k log F) in the
    /// transitions due since the last query, not the fleet size; assumes
    /// non-decreasing `now` across queries.
    #[must_use]
    pub fn available(&self, grade: DeviceGrade, now: SimInstant) -> usize {
        self.sync_index(now);
        self.index.borrow().free_count(grade)
    }

    /// Selects `count` idle phones of `grade` at `now`, preferring local
    /// devices over MSP rentals (ids ascending within each provenance).
    ///
    /// Selection is a pure query — phones become busy only when a run is
    /// submitted — so it borrows `self` immutably; the availability index
    /// syncs behind a `RefCell`.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] if fewer than `count` are
    /// idle.
    pub fn select(
        &self,
        grade: DeviceGrade,
        count: usize,
        now: SimInstant,
    ) -> Result<Vec<PhoneId>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.sync_index(now);
        let idx = self.index.borrow();
        let exhausted = |available: usize| SimdcError::ResourceExhausted {
            requested: format!("{count} {grade} phones"),
            available: format!("{available} {grade} phones"),
        };
        // O(1) shortfall check so an unsatisfiable request never walks the
        // free set (the scheduler probes depleted grades repeatedly).
        let free = idx.free_count(grade);
        if free < count {
            return Err(exhausted(free));
        }
        let mut picked = Vec::with_capacity(count);
        for id in idx.iter_free(grade) {
            // Defensive re-verification: free sets are exact for
            // monotonically advancing query times; this guards the
            // invariant even if a caller runs time backwards.
            let phone = &self.phones[self.by_id[&id]];
            if phone.is_busy(now) || phone.is_crashed(now) {
                continue;
            }
            picked.push(id);
            if picked.len() == count {
                return Ok(picked);
            }
        }
        // Only reachable when re-verification skipped stale entries, i.e.
        // a caller violated the monotone-clock assumption.
        Err(exhausted(picked.len()))
    }

    /// Assigns a run plan to a phone.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown, busy or
    /// crashed phones.
    pub fn submit_run(&mut self, id: PhoneId, plan: RunPlan) -> Result<()> {
        let phone = self
            .device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        phone.assign_run(plan)?;
        self.touch(id);
        Ok(())
    }

    /// Executes the paper's measurement command battery against one phone
    /// at virtual time `now` and post-processes the output into a
    /// [`PerfSample`].
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown phones, and
    /// [`SimdcError::AdbCommand`] when the device is offline or output is
    /// malformed. A phone without an active run yields an error too — only
    /// benchmarking devices inside a run are polled.
    pub fn poll(&mut self, id: PhoneId, now: SimInstant) -> Result<PerfSample> {
        // Measurement draws device noise (mutating the RNG stream) but
        // never changes availability, so it bypasses the dirty tracking.
        let phone = self
            .device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        let stage = phone.stage_at(now).ok_or_else(|| {
            SimdcError::AdbCommand(format!("phone {id} has no active run at {now}"))
        })?;

        let current_ua = parse_current_ua(
            &phone.adb_shell("cat /sys/class/power_supply/battery/current_now", now)?,
        )?;
        let voltage_mv = parse_voltage_mv(
            &phone.adb_shell("cat /sys/class/power_supply/battery/voltage_now", now)?,
        )?;

        let pid_out = phone.adb_shell(&format!("pgrep -f {TRAIN_PROCESS}"), now)?;
        let (cpu_pct, mem_kb, net_bytes) = if pid_out.trim().is_empty() {
            // Process not alive (stages 1 and 5): nothing to measure.
            (0.0, 0.0, phone.net_bytes_at(now))
        } else {
            let pid = pid_out.trim();
            let cpu = parse_top_cpu(&phone.adb_shell(&format!("top -b -n 1 -p {pid}"), now)?)?;
            let mem = parse_pss_kb(
                &phone.adb_shell(&format!("dumpsys {TRAIN_PROCESS} | grep PSS"), now)?,
            )?;
            let net = parse_wlan_bytes(
                &phone.adb_shell(&format!("cat /proc/{pid}/net/dev | grep wlan"), now)?,
            )?;
            (cpu, mem, net)
        };

        Ok(PerfSample {
            phone: id,
            at: now,
            stage,
            current_ua,
            voltage_mv,
            cpu_pct,
            mem_kb,
            net_bytes,
        })
    }

    /// Measures a benchmarking phone across its entire active run: polls at
    /// the manager's interval, skips the waiting-for-aggregation gaps (the
    /// paper records no data there), and aggregates the Table-I stages.
    ///
    /// If the phone crashes mid-run the report contains everything captured
    /// up to the crash.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown phones and
    /// `InvalidConfig` if the phone has no assigned run.
    pub fn measure_run(&mut self, id: PhoneId) -> Result<PerfReport> {
        let (start, end, grade) = {
            let phone = self.phone(id).ok_or(SimdcError::PhoneUnavailable(id))?;
            let run = phone.run().ok_or_else(|| {
                SimdcError::InvalidConfig(format!("phone {id} has no assigned run"))
            })?;
            (run.start(), run.end(), phone.grade())
        };

        let mut samples = Vec::new();
        let mut cpu_series = TimeSeries::new(format!("{id}/cpu_pct"));
        let mut mem_series = TimeSeries::new(format!("{id}/mem_mb"));
        let mut t = start;
        while t < end {
            match self.poll(id, t) {
                Ok(sample) => {
                    // The paper records no data while a device waits for
                    // global aggregation (Fig 5's dashed gaps) — waiting
                    // samples are kept only as raw stage markers so the
                    // Table-I aggregation can separate adjacent rounds.
                    if sample.stage != Stage::Waiting && sample.stage.apk_running() {
                        cpu_series.record(t, sample.cpu_pct);
                        mem_series.record(t, sample.mem_kb / 1_024.0);
                    }
                    samples.push(sample);
                }
                Err(SimdcError::AdbCommand(_)) => break, // crashed mid-run
                Err(other) => return Err(other),
            }
            t += self.poll_interval;
        }

        let stages = aggregate_stages(&samples, self.poll_interval);
        Ok(PerfReport {
            phone: id,
            grade,
            stages,
            cpu_series,
            mem_series,
            samples,
        })
    }

    /// Builds the standard run plan for a task on a phone: per-round
    /// training at the phone's profiled `β`, separated by the given
    /// aggregation gaps.
    ///
    /// # Errors
    ///
    /// Propagates [`RunPlan::new`] validation errors and
    /// [`SimdcError::PhoneUnavailable`] for unknown phones.
    pub fn plan_for(
        &self,
        id: PhoneId,
        task: simdc_types::TaskId,
        start: SimInstant,
        rounds: usize,
        waiting_gap: SimDuration,
    ) -> Result<RunPlan> {
        let phone = self.phone(id).ok_or(SimdcError::PhoneUnavailable(id))?;
        let beta = phone.profile().beta();
        let durations = vec![beta; rounds];
        let gaps = vec![waiting_gap; rounds.saturating_sub(1)];
        RunPlan::new(task, id, start, &durations, &gaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::TaskId;

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn paper_default_fleet_composition() {
        let mgr = PhoneMgr::paper_default(1);
        assert_eq!(mgr.total(), 30);
        assert_eq!(mgr.count(DeviceGrade::High, Some(Provenance::Local)), 4);
        assert_eq!(mgr.count(DeviceGrade::Low, Some(Provenance::Local)), 6);
        assert_eq!(mgr.count(DeviceGrade::High, Some(Provenance::Msp)), 13);
        assert_eq!(mgr.count(DeviceGrade::Low, Some(Provenance::Msp)), 7);
        assert_eq!(mgr.count(DeviceGrade::High, None), 17);
    }

    #[test]
    fn scaled_paper_fleet_preserves_total_and_ratio() {
        for total in [30, 100, 1_000, 100_000, 999_999] {
            let spec = FleetSpec::scaled_paper(total);
            assert_eq!(spec.total(), total, "total {total}");
        }
        let spec = FleetSpec::scaled_paper(300_000);
        assert_eq!(*spec.local.get(DeviceGrade::High), 40_000);
        assert_eq!(*spec.msp.get(DeviceGrade::High), 130_000);
    }

    #[test]
    fn select_prefers_local_phones() {
        let mgr = PhoneMgr::paper_default(2);
        let picked = mgr.select(DeviceGrade::High, 5, t(0)).unwrap();
        assert_eq!(picked.len(), 5);
        let locals = picked
            .iter()
            .filter(|id| mgr.phone(**id).unwrap().provenance() == Provenance::Local)
            .count();
        assert_eq!(locals, 4, "all 4 local High phones come first");
    }

    #[test]
    fn select_is_a_pure_query_on_a_shared_reference() {
        let mgr = PhoneMgr::paper_default(12);
        let shared: &PhoneMgr = &mgr;
        let a = shared.select(DeviceGrade::High, 3, t(0)).unwrap();
        let b = shared.select(DeviceGrade::High, 3, t(0)).unwrap();
        assert_eq!(a, b, "selection must not consume availability");
    }

    #[test]
    fn select_fails_when_insufficient() {
        let mgr = PhoneMgr::paper_default(3);
        assert!(mgr.select(DeviceGrade::High, 18, t(0)).is_err());
    }

    #[test]
    fn busy_phones_are_not_selectable() {
        let mut mgr = PhoneMgr::paper_default(4);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 2, SimDuration::from_secs(10))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(5)), 16);
        let next = mgr.select(DeviceGrade::High, 17, t(5));
        assert!(next.is_err());
    }

    #[test]
    fn availability_returns_when_the_run_ends() {
        let mut mgr = PhoneMgr::paper_default(13);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        let end = plan.end();
        mgr.submit_run(id, plan).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(5)), 16);
        // The first query at/after the run's end sees the phone free again
        // without any explicit release call.
        assert_eq!(mgr.available(DeviceGrade::High, end), 17);
        let again = mgr.select(DeviceGrade::High, 17, end).unwrap();
        assert!(again.contains(&id));
    }

    #[test]
    fn crash_and_reboot_flow_through_the_index() {
        let mut mgr = PhoneMgr::paper_default(14);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        // Future crash: still available until the onset instant.
        mgr.inject_crash(id, t(50)).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(10)), 17);
        assert_eq!(mgr.available(DeviceGrade::High, t(50)), 16);
        assert!(mgr.select(DeviceGrade::High, 17, t(60)).is_err());
        mgr.reboot(id).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(60)), 17);
        assert!(mgr.inject_crash(PhoneId(9_999), t(0)).is_err());
    }

    #[test]
    fn retire_removes_phones_from_counts_and_selection() {
        let mut mgr = PhoneMgr::paper_default(15);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let retired = mgr.retire(id).unwrap();
        assert_eq!(retired.id(), id);
        assert_eq!(mgr.total(), 29);
        assert_eq!(mgr.count(DeviceGrade::High, None), 16);
        assert_eq!(mgr.available(DeviceGrade::High, t(0)), 16);
        assert!(mgr.phone(id).is_none());
        assert!(mgr.retire(id).is_err(), "double retire must fail");
        // Draining a grade entirely leaves no effective profile.
        let low_ids: Vec<PhoneId> = mgr
            .phones()
            .iter()
            .filter(|p| p.grade() == DeviceGrade::Low)
            .map(|p| p.id())
            .collect();
        for low in low_ids {
            mgr.retire(low).unwrap();
        }
        assert_eq!(mgr.count(DeviceGrade::Low, None), 0);
        assert!(mgr.try_effective_profile(DeviceGrade::Low).is_none());
        assert!(mgr.try_effective_profile(DeviceGrade::High).is_some());
    }

    #[test]
    fn poll_produces_clean_sample_during_training() {
        let mut mgr = PhoneMgr::paper_default(5);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let sample = mgr.poll(id, t(35)).unwrap(); // inside training
        assert_eq!(sample.stage, Stage::Training);
        assert!(sample.current_ua > 30_000.0);
        assert!((3_700.0..4_100.0).contains(&sample.voltage_mv));
        assert!(sample.cpu_pct > 2.0);
        assert!(sample.mem_kb > 10_000.0);
    }

    #[test]
    fn poll_handles_process_absent_stages() {
        let mut mgr = PhoneMgr::paper_default(6);
        let id = mgr.select(DeviceGrade::Low, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let sample = mgr.poll(id, t(2)).unwrap(); // stage 1, no APK
        assert_eq!(sample.stage, Stage::NoApk);
        assert_eq!(sample.cpu_pct, 0.0);
        assert_eq!(sample.mem_kb, 0.0);
    }

    #[test]
    fn poll_without_run_is_an_error() {
        let mut mgr = PhoneMgr::paper_default(7);
        let id = mgr.phones()[0].id();
        assert!(mgr.poll(id, t(0)).is_err());
    }

    #[test]
    fn measure_run_covers_all_five_stages() {
        let mut mgr = PhoneMgr::paper_default(8);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 3, SimDuration::from_secs(20))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let report = mgr.measure_run(id).unwrap();
        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.grade, DeviceGrade::High);
        // Waiting periods never reach the Fig-5 traces (the paper records
        // no data while devices wait for aggregation)...
        assert!(report.cpu_series.len() < report.samples.len());
        // ...but they do appear as raw stage markers separating rounds.
        assert!(report.samples.iter().any(|s| s.stage == Stage::Waiting));
        // CPU/memory traces span the run.
        assert!(report.cpu_series.len() > 30);
        assert!(report.mem_series.stats().max > 10.0);
    }

    #[test]
    fn measured_power_tracks_table1() {
        let mut mgr =
            PhoneMgr::with_fleet(FleetSpec::paper_default(), SimDuration::from_millis(250), 9);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let report = mgr.measure_run(id).unwrap();
        let training = report.stage(Stage::Training).unwrap();
        // Table I High / Training: 0.18 mAh over 0.27 min.
        assert!(
            (training.power_mah - 0.18).abs() < 0.03,
            "power {}",
            training.power_mah
        );
        assert!((training.duration_min - 0.27).abs() < 0.02);
        assert!((training.comm_kb - 33.1).abs() < 2.0);
    }

    #[test]
    fn crash_mid_run_yields_partial_report() {
        let mut mgr = PhoneMgr::paper_default(10);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 2, SimDuration::from_secs(10))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        mgr.phone_mut(id).unwrap().inject_crash(t(40));
        let report = mgr.measure_run(id).unwrap();
        assert!(report.samples.last().unwrap().at < t(40));
        assert!(report.stages.len() < 5, "post-crash stages missing");
    }

    #[test]
    fn effective_profile_tracks_fleet_composition() {
        let mut mgr = PhoneMgr::paper_default(11);
        let nominal = PhoneProfile::for_grade(DeviceGrade::High);
        // Uniform fleet: effective == nominal.
        let eff = mgr.effective_profile(DeviceGrade::High);
        assert_eq!(eff.train_duration, nominal.train_duration);
        assert_eq!(eff.framework_startup, nominal.framework_startup);
        // Slow one of the 17 High phones 2x: the mean shifts by 1/17.
        let id = mgr
            .phones()
            .iter()
            .find(|p| p.grade() == DeviceGrade::High)
            .unwrap()
            .id();
        let mut slowed = nominal.clone();
        slowed.train_duration = SimDuration::from_secs_f64(nominal.beta().as_secs_f64() * 2.0);
        mgr.set_phone_profile(id, slowed).unwrap();
        let eff = mgr.effective_profile(DeviceGrade::High);
        let expected = nominal.beta().as_secs_f64() * (16.0 + 2.0) / 17.0;
        assert!((eff.train_duration.as_secs_f64() - expected).abs() < 1e-6);
        // Unknown-grade fleets fall back to the nominal profile.
        let empty = PhoneMgr::new(SimDuration::from_secs(1));
        assert_eq!(
            empty.effective_profile(DeviceGrade::Low).train_duration,
            PhoneProfile::low().train_duration
        );
    }

    #[test]
    fn raw_phone_mut_mutations_reach_the_index() {
        let mut mgr = PhoneMgr::paper_default(16);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        // Mutate through the raw accessor (no dedicated hook): the dirty
        // tracking must fold the change into the next query.
        mgr.phone_mut(id).unwrap().inject_crash(t(0));
        assert_eq!(mgr.available(DeviceGrade::High, t(1)), 16);
        mgr.phone_mut(id).unwrap().reboot();
        assert_eq!(mgr.available(DeviceGrade::High, t(2)), 17);
        // Profile changes through the raw accessor reach the sums too.
        let mut slowed = PhoneProfile::for_grade(DeviceGrade::High);
        slowed.train_duration = slowed.train_duration * 3;
        mgr.phone_mut(id).unwrap().set_profile(slowed).unwrap();
        let eff = mgr.effective_profile(DeviceGrade::High);
        assert!(eff.train_duration > PhoneProfile::for_grade(DeviceGrade::High).train_duration);
    }

    #[test]
    fn segments_cover_the_fleet_contiguously_in_registration_order() {
        let spec = FleetSpec::paper_default();
        let segs = spec.segments();
        assert_eq!(segs.len(), 4);
        let mut next = 0u32;
        for seg in &segs {
            assert_eq!(seg.start, next, "segments must tile the id space");
            next += seg.count as u32;
        }
        assert_eq!(next as usize, spec.total());
        // Registration order: every Local grade before any MSP grade.
        let first_msp = segs
            .iter()
            .position(|s| s.provenance == Provenance::Msp)
            .unwrap();
        assert!(segs[..first_msp]
            .iter()
            .all(|s| s.provenance == Provenance::Local));
        assert!(segs[first_msp..]
            .iter()
            .all(|s| s.provenance == Provenance::Msp));
    }

    #[test]
    fn chunked_segments_rebuild_the_segment_exactly() {
        let seg = FleetSegment {
            start: 10,
            count: 7,
            grade: DeviceGrade::Low,
            provenance: Provenance::Msp,
        };
        for chunk in [1, 2, 3, 7, 100] {
            let parts = seg.chunked(chunk);
            assert_eq!(parts.iter().map(|p| p.count).sum::<usize>(), seg.count);
            let rebuilt: Vec<PhoneDevice> = parts.iter().flat_map(|p| p.build(42)).collect();
            assert_eq!(rebuilt, seg.build(42), "chunk size {chunk}");
        }
    }

    #[test]
    fn prebuilt_segments_match_with_fleet_exactly() {
        let spec = FleetSpec::scaled_paper(90);
        let seed = 7;
        let direct = PhoneMgr::with_fleet(spec, SimDuration::from_secs(1), seed);
        let phones: Vec<PhoneDevice> = spec
            .segments()
            .iter()
            .flat_map(|seg| seg.chunked(13))
            .flat_map(|seg| seg.build(seed))
            .collect();
        let rebuilt = PhoneMgr::from_prebuilt(phones, SimDuration::from_secs(1)).unwrap();
        assert_eq!(direct.phones(), rebuilt.phones());
        // And the index answers agree.
        for grade in DeviceGrade::ALL {
            assert_eq!(
                direct.available(grade, t(0)),
                rebuilt.available(grade, t(0))
            );
            assert_eq!(
                direct.select(grade, 5, t(0)).unwrap(),
                rebuilt.select(grade, 5, t(0)).unwrap()
            );
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut mgr = PhoneMgr::new(SimDuration::from_secs(1));
        let p = PhoneDevice::new(PhoneId(0), "x", DeviceGrade::High, Provenance::Local, 1);
        mgr.register(p.clone()).unwrap();
        assert!(mgr.register(p).is_err());
    }
}
