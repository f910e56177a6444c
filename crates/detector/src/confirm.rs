//! The AV's temporal confirmation rule.
//!
//! The paper's key observation: an autonomous vehicle acts on a detection
//! only after it persists for several consecutive frames ("an object is
//! confirmed by AVs only after the object is detected for consecutive
//! frames"), so a patch that fools single frames intermittently never
//! actually diverts the vehicle. The rule comes in three forms:
//!
//! * [`ConfirmState`] latches on one target class, frame by frame. CWC
//!   is scored with it (through `road-decals`' `metrics::CellAccumulator`).
//! * [`has_consecutive`] scans a buffered history: the reference the
//!   streamed scorer is tested against.
//! * [`Confirmer`] follows whichever class currently persists; it feeds
//!   the [`crate::Tracker`].

use rd_scene::ObjectClass;

/// Streaming consecutive-frame confirmation with window `m` (the paper
/// uses `m = 3`).
///
/// # Examples
///
/// ```
/// use rd_detector::Confirmer;
/// use rd_scene::ObjectClass;
///
/// let mut c = Confirmer::new(3);
/// assert_eq!(c.push(Some(ObjectClass::Car)), None);
/// assert_eq!(c.push(Some(ObjectClass::Car)), None);
/// assert_eq!(c.push(Some(ObjectClass::Car)), Some(ObjectClass::Car));
/// ```
#[derive(Debug, Clone)]
pub struct Confirmer {
    window: usize,
    current: Option<ObjectClass>,
    run: usize,
    confirmed: Vec<ObjectClass>,
}

impl Confirmer {
    /// Creates a confirmer requiring `window` consecutive detections.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Confirmer {
            window,
            current: None,
            run: 0,
            confirmed: Vec::new(),
        }
    }

    /// The confirmation window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feeds the per-frame classification of the tracked object (or `None`
    /// when nothing was detected). Returns `Some(class)` on the frame the
    /// class becomes confirmed.
    pub fn push(&mut self, observation: Option<ObjectClass>) -> Option<ObjectClass> {
        match observation {
            Some(class) if self.current == Some(class) => {
                self.run += 1;
            }
            Some(class) => {
                self.current = Some(class);
                self.run = 1;
            }
            None => {
                self.current = None;
                self.run = 0;
            }
        }
        if self.run == self.window {
            let class = self.current.expect("run > 0 implies a class");
            self.confirmed.push(class);
            Some(class)
        } else {
            None
        }
    }

    /// Every class that has been confirmed so far (in order).
    pub fn confirmed(&self) -> &[ObjectClass] {
        &self.confirmed
    }

    /// Whether `class` was ever confirmed.
    pub fn ever_confirmed(&self, class: ObjectClass) -> bool {
        self.confirmed.contains(&class)
    }
}

/// Streaming CWC state for one *target* class: the O(1)-per-frame
/// replacement for buffering a whole classification history and scanning
/// it with [`has_consecutive`] afterwards.
///
/// Feeding every frame of a history through [`ConfirmState::push`] and
/// reading [`ConfirmState::confirmed`] gives exactly
/// `has_consecutive(&history, class, window)` — the streaming evaluation
/// pipeline relies on that equivalence (it is property-tested), because
/// its CWC must be bitwise-identical to the buffered reference path's.
///
/// Unlike [`Confirmer`], which tracks whichever class is currently
/// persisting, `ConfirmState` watches a single class fixed at
/// construction and latches once the window is reached.
///
/// # Examples
///
/// ```
/// use rd_detector::ConfirmState;
/// use rd_scene::ObjectClass;
///
/// let mut s = ConfirmState::new(ObjectClass::Car, 3);
/// for _ in 0..3 {
///     s.push(Some(ObjectClass::Car));
/// }
/// assert!(s.confirmed());
/// ```
#[derive(Debug, Clone)]
pub struct ConfirmState {
    class: ObjectClass,
    window: usize,
    run: usize,
    confirmed: bool,
}

impl ConfirmState {
    /// Creates streaming confirmation state for `class` with the given
    /// consecutive-frame `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(class: ObjectClass, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        ConfirmState {
            class,
            window,
            run: 0,
            confirmed: false,
        }
    }

    /// The class being watched.
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// The confirmation window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feeds one frame's classification. Any observation other than the
    /// watched class (including `None`) resets the run, exactly like the
    /// run-length scan in [`has_consecutive`].
    pub fn push(&mut self, observation: Option<ObjectClass>) {
        if observation == Some(self.class) {
            self.run += 1;
            if self.run >= self.window {
                self.confirmed = true;
            }
        } else {
            self.run = 0;
        }
    }

    /// Whether the watched class has ever persisted for a full window.
    pub fn confirmed(&self) -> bool {
        self.confirmed
    }
}

/// Offline helper: does `history` contain `window` consecutive frames of
/// `class`? This is exactly the paper's CWC criterion.
pub fn has_consecutive(history: &[Option<ObjectClass>], class: ObjectClass, window: usize) -> bool {
    let mut run = 0usize;
    for &h in history {
        if h == Some(class) {
            run += 1;
            if run >= window {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interruption_resets_the_run() {
        let mut c = Confirmer::new(3);
        assert_eq!(c.push(Some(ObjectClass::Car)), None);
        assert_eq!(c.push(Some(ObjectClass::Car)), None);
        assert_eq!(c.push(None), None);
        assert_eq!(c.push(Some(ObjectClass::Car)), None);
        assert_eq!(c.push(Some(ObjectClass::Car)), None);
        assert_eq!(c.push(Some(ObjectClass::Car)), Some(ObjectClass::Car));
    }

    #[test]
    fn class_switch_resets_the_run() {
        let mut c = Confirmer::new(2);
        c.push(Some(ObjectClass::Car));
        c.push(Some(ObjectClass::Word));
        assert_eq!(c.confirmed(), &[] as &[ObjectClass]);
        assert_eq!(c.push(Some(ObjectClass::Word)), Some(ObjectClass::Word));
        assert!(c.ever_confirmed(ObjectClass::Word));
        assert!(!c.ever_confirmed(ObjectClass::Car));
    }

    #[test]
    fn confirmation_fires_once_per_run() {
        let mut c = Confirmer::new(2);
        c.push(Some(ObjectClass::Car));
        assert_eq!(c.push(Some(ObjectClass::Car)), Some(ObjectClass::Car));
        // further frames of the same run do not re-confirm
        assert_eq!(c.push(Some(ObjectClass::Car)), None);
        assert_eq!(c.confirmed().len(), 1);
    }

    #[test]
    fn offline_matches_streaming() {
        let hist = vec![
            Some(ObjectClass::Car),
            Some(ObjectClass::Car),
            None,
            Some(ObjectClass::Word),
            Some(ObjectClass::Word),
            Some(ObjectClass::Word),
        ];
        assert!(!has_consecutive(&hist, ObjectClass::Car, 3));
        assert!(has_consecutive(&hist, ObjectClass::Word, 3));
        let mut c = Confirmer::new(3);
        for &h in &hist {
            c.push(h);
        }
        assert!(c.ever_confirmed(ObjectClass::Word));
        assert!(!c.ever_confirmed(ObjectClass::Car));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = Confirmer::new(0);
    }

    #[test]
    fn confirm_state_matches_offline_scan() {
        let hist = vec![
            Some(ObjectClass::Car),
            Some(ObjectClass::Car),
            None,
            Some(ObjectClass::Car),
            Some(ObjectClass::Word),
            Some(ObjectClass::Car),
            Some(ObjectClass::Car),
            Some(ObjectClass::Car),
        ];
        for window in 1..=4 {
            for class in [ObjectClass::Car, ObjectClass::Word, ObjectClass::Mark] {
                let mut s = ConfirmState::new(class, window);
                for &h in &hist {
                    s.push(h);
                }
                assert_eq!(
                    s.confirmed(),
                    has_consecutive(&hist, class, window),
                    "class {class:?} window {window}"
                );
            }
        }
    }

    #[test]
    fn confirm_state_latches() {
        let mut s = ConfirmState::new(ObjectClass::Car, 2);
        s.push(Some(ObjectClass::Car));
        s.push(Some(ObjectClass::Car));
        assert!(s.confirmed());
        s.push(None);
        assert!(s.confirmed(), "confirmation is permanent for CWC");
        assert_eq!((s.class(), s.window()), (ObjectClass::Car, 2));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn confirm_state_zero_window_rejected() {
        let _ = ConfirmState::new(ObjectClass::Car, 0);
    }
}
