//! User-defined functions backing unguarded functional dependencies.
//!
//! The paper (Sec. 1.1) models a UDF `u = f(x, z)` as an infinite relation
//! `F(x, z, u)` with FD `xz → u`, accessible only by binding the inputs.
//! From Sec. 5.1 on, the algorithms "have access to the UDFs that defined
//! the unguarded FDs"; the registry below is that access path.

use crate::Value;
use fdjoin_lattice::VarSet;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A user-defined function: receives the argument values ordered by
/// ascending variable id and returns the output value.
pub type UdfFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// Registry of UDFs keyed by `(argument variables, output variable)`.
///
/// The map is ordered, so every lookup — [`UdfRegistry::find_applicable`]
/// in particular — is a function of the registered keys alone, never of
/// insertion order or a hash seed.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    map: BTreeMap<(VarSet, u32), UdfFn>,
    version: u64,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register `out = f(args)`. `args` values are passed to `f` ordered by
    /// ascending variable id.
    pub fn register<F>(&mut self, args: VarSet, out: u32, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.map.insert((args, out), Arc::new(f));
        self.version = crate::relation::next_version();
    }

    /// Registry version: a globally unique stamp refreshed on every
    /// [`UdfRegistry::register`], with the same clone-shares-until-mutated
    /// semantics as [`crate::Relation::version`]. Derivations whose output
    /// depends on UDFs (FD expansion) fold it into their cache signatures.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Look up a UDF.
    pub fn get(&self, args: VarSet, out: u32) -> Option<&UdfFn> {
        self.map.get(&(args, out))
    }

    /// Find the registered UDF with output `out` whose arguments are a
    /// subset of `available`; when several apply, the one with the smallest
    /// `(args, out)` key in [`VarSet`] order wins. Returns the argument set
    /// and function.
    pub fn find_applicable(&self, available: VarSet, out: u32) -> Option<(VarSet, &UdfFn)> {
        self.map
            .iter()
            .find(|((args, o), _)| *o == out && args.is_subset(available))
            .map(|((args, _), f)| (*args, f))
    }

    /// Evaluate `out = f(args)` for a tuple given as `(var, value)` pairs
    /// covering at least `args`.
    pub fn eval(&self, args: VarSet, out: u32, bindings: &[(u32, Value)]) -> Option<Value> {
        let f = self.get(args, out)?;
        let mut argv: Vec<Value> = Vec::with_capacity(args.len() as usize);
        for v in args.iter() {
            let (_, val) = bindings.iter().find(|(w, _)| *w == v)?;
            argv.push(*val);
        }
        Some(f(&argv))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UdfRegistry({} fns)", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_eval() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([0, 2]);
        reg.register(args, 3, |v| v[0] + v[1]);
        let out = reg.eval(args, 3, &[(2, 10), (0, 1)]);
        assert_eq!(out, Some(11));
        assert!(reg.eval(args, 4, &[(0, 1), (2, 10)]).is_none());
    }

    #[test]
    fn arg_order_is_by_variable_id() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([5, 1]);
        reg.register(args, 7, |v| v[0] * 100 + v[1]);
        // var 1 comes first regardless of binding order.
        let out = reg.eval(args, 7, &[(5, 2), (1, 3)]);
        assert_eq!(out, Some(302));
    }

    #[test]
    fn find_applicable_respects_subset() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([0, 1]);
        reg.register(args, 2, |v| v[0] ^ v[1]);
        assert!(reg
            .find_applicable(VarSet::from_vars([0, 1, 3]), 2)
            .is_some());
        assert!(reg.find_applicable(VarSet::from_vars([0, 3]), 2).is_none());
        assert!(reg.find_applicable(VarSet::from_vars([0, 1]), 5).is_none());
    }

    #[test]
    fn find_applicable_ignores_registration_order() {
        // Three UDFs for output 3, all applicable over {0,1,2}: whatever
        // the insertion order, the smallest argument set wins.
        let keys = [
            VarSet::from_vars([1, 2]),
            VarSet::from_vars([0]),
            VarSet::from_vars([0, 2]),
        ];
        let mut forward = UdfRegistry::new();
        let mut backward = UdfRegistry::new();
        for (i, &args) in keys.iter().enumerate() {
            forward.register(args, 3, move |_| i as Value);
        }
        for (i, &args) in keys.iter().enumerate().rev() {
            backward.register(args, 3, move |_| i as Value);
        }
        let available = VarSet::from_vars([0, 1, 2]);
        let (fa, ff) = forward.find_applicable(available, 3).unwrap();
        let (ba, bf) = backward.find_applicable(available, 3).unwrap();
        assert_eq!(fa, VarSet::from_vars([0]));
        assert_eq!(ba, fa);
        assert_eq!(ff(&[]), bf(&[]));
    }
}
