//! The counter-table macro behind every `STATS` reply.

use std::sync::atomic::{AtomicU64, Ordering};

/// Count `n` events on a live counter (relaxed: counters order nothing).
pub fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Declare a tier's counters as one table, next to the type that owns
/// them. A row is the only place its counter is named; in `STATS` order,
/// each row is one of:
///
/// - `live key: T;` — a relaxed `AtomicU64`, a snapshot field, a pair;
/// - `read key: T = |owner| expr;` — a snapshot field and a pair whose
///   value the owner reads from elsewhere;
/// - `part key: T = |owner| expr;` — a snapshot field with no pair;
/// - `wire key = |owner, snapshot| expr;` — a pair with no field.
///
/// It generates the `Default` counters struct (the owner holds it at the
/// given path), the documented snapshot struct, the snapshot method, and
/// the pairs method returning every `(key, u64)` in row order with the key
/// spelled as the row's name — the `STATS` reply.
#[macro_export]
macro_rules! stats_table {
    (impl $Owner:ident { counters: $C:ident at $($p:ident).+, snapshot: $sv:vis fn $snap:ident, pairs: $pv:vis fn $pairs:ident $(,)? }
     $(#[$m:meta])* $v:vis struct $S:ident { $($rows:tt)* }) => {
        $crate::stats_table!(@rows [$Owner $C [$($p).+] [$sv] $snap [$pv] $pairs [$(#[$m])*] [$v] $S] [] [] [] $($rows)*);
    };
    // Accumulators: [live atomics] [snapshot fields + how to fill them] [pairs].
    (@rows $h:tt [$($l:tt)*] [$($f:tt)*] [$($w:tt)*] $(#[doc = $d:literal])* live $k:ident: $t:ty; $($rest:tt)*) => {
        $crate::stats_table!(@rows $h [$($l)* $k] [$($f)* [[$($d)*] $k: $t = live]] [$($w)* [$k]] $($rest)*);
    };
    (@rows $h:tt $l:tt [$($f:tt)*] [$($w:tt)*] $(#[doc = $d:literal])* read $k:ident: $t:ty = |$e:pat_param| $x:expr; $($rest:tt)*) => {
        $crate::stats_table!(@rows $h $l [$($f)* [[$($d)*] $k: $t = |$e| $x]] [$($w)* [$k]] $($rest)*);
    };
    (@rows $h:tt $l:tt [$($f:tt)*] $w:tt $(#[doc = $d:literal])* part $k:ident: $t:ty = |$e:pat_param| $x:expr; $($rest:tt)*) => {
        $crate::stats_table!(@rows $h $l [$($f)* [[$($d)*] $k: $t = |$e| $x]] $w $($rest)*);
    };
    (@rows $h:tt $l:tt $f:tt [$($w:tt)*] wire $k:ident = |$e:pat_param, $s:pat_param| $x:expr; $($rest:tt)*) => {
        $crate::stats_table!(@rows $h $l $f [$($w)* [$k |$e, $s| $x]] $($rest)*);
    };
    (@rows [$Owner:ident $C:ident $p:tt [$sv:vis] $snap:ident [$pv:vis] $pairs:ident [$(#[$m:meta])*] [$v:vis] $S:ident]
        [$($l:ident)*] [$([[$($d:literal)*] $k:ident: $t:ty = $($fill:tt)*])*] [$([$wk:ident $($how:tt)*])*]) => {
        /// The live counters, bumped with relaxed increments where counted.
        #[derive(Debug, Default)]
        struct $C { $($l: ::std::sync::atomic::AtomicU64,)* }

        $(#[$m])*
        $v struct $S { $($(#[doc = $d])* pub $k: $t,)* }

        #[allow(clippy::unnecessary_cast)]
        impl $Owner {
            /// Counter snapshot.
            $sv fn $snap(&self) -> $S {
                $S { $($k: $crate::stats_table!(@fill self $p $k $t, $($fill)*),)* }
            }

            /// Every `STATS` `(key, value)` pair, in table order.
            $pv fn $pairs(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                let snap = self.$snap();
                ::std::vec![$((::std::stringify!($wk), $crate::stats_table!(@pair self snap $wk $($how)*)),)*]
            }
        }
    };
    (@fill $o:ident [$($p:ident).+] $k:ident $t:ty, live) => {
        $o.$($p).+.$k.load(::std::sync::atomic::Ordering::Relaxed) as $t
    };
    (@fill $o:ident $p:tt $k:ident $t:ty, |$e:pat_param| $x:expr) => {{ let $e = $o; $x }};
    (@pair $o:ident $snap:ident $k:ident) => { $snap.$k as u64 };
    (@pair $o:ident $snap:ident $k:ident |$e:pat_param, $s:pat_param| $x:expr) => {{ let $e = $o; let $s = &$snap; $x }};
}
