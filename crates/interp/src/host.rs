//! Host functions and import resolution.

use crate::memory::Memory;
use crate::trap::Trap;
use crate::value::Value;

/// The context a host function receives: access to the instance's
/// linear memory (if any).
pub struct HostCtx<'a> {
    /// The instance's linear memory, if the module declares one.
    pub memory: Option<&'a mut Memory>,
}

impl HostCtx<'_> {
    /// Borrows the memory, trapping if the module has none.
    pub fn memory(&mut self) -> Result<&mut Memory, Trap> {
        self.memory
            .as_deref_mut()
            .ok_or_else(|| Trap::Host("host function requires a memory".into()))
    }
}

/// A host function: receives the call context and arguments, returns
/// result values (checked against the import's declared type).
pub type HostFunc = Box<dyn FnMut(&mut HostCtx<'_>, &[Value]) -> Result<Vec<Value>, Trap>>;

/// Resolved imports for instantiation, keyed by static `module.name`
/// pairs. An embedder registers a handful of them per instance, so
/// plain vectors searched in place beat a hash table: registering and
/// resolving allocate no names.
#[derive(Default)]
pub struct Imports {
    funcs: Vec<(&'static str, &'static str, HostFunc)>,
    globals: Vec<(&'static str, &'static str, Value)>,
}

impl Imports {
    /// Creates an empty import set.
    pub fn new() -> Imports {
        Imports::default()
    }

    /// Registers a host function under `module.name`, replacing any
    /// earlier one of that name.
    pub fn func(
        mut self,
        module: &'static str,
        name: &'static str,
        f: impl FnMut(&mut HostCtx<'_>, &[Value]) -> Result<Vec<Value>, Trap> + 'static,
    ) -> Imports {
        self.funcs.retain(|(m, n, _)| (*m, *n) != (module, name));
        self.funcs.push((module, name, Box::new(f)));
        self
    }

    /// Registers an imported (immutable) global value, replacing any
    /// earlier one of that name.
    pub fn global(mut self, module: &'static str, name: &'static str, v: Value) -> Imports {
        self.globals.retain(|(m, n, _)| (*m, *n) != (module, name));
        self.globals.push((module, name, v));
        self
    }

    pub(crate) fn take_func(&mut self, module: &str, name: &str) -> Option<HostFunc> {
        let i = self
            .funcs
            .iter()
            .position(|(m, n, _)| *m == module && *n == name)?;
        Some(self.funcs.swap_remove(i).2)
    }

    pub(crate) fn get_global(&self, module: &str, name: &str) -> Option<Value> {
        self.globals
            .iter()
            .find(|(m, n, _)| *m == module && *n == name)
            .map(|(_, _, v)| *v)
    }
}

impl std::fmt::Debug for Imports {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let funcs: Vec<_> = self.funcs.iter().map(|(m, n, _)| (m, n)).collect();
        f.debug_struct("Imports")
            .field("funcs", &funcs)
            .field("globals", &self.globals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imports_register_and_resolve() {
        let mut imp =
            Imports::new()
                .func("env", "f", |_, _| Ok(vec![]))
                .global("env", "g", Value::I32(7));
        assert!(imp.take_func("env", "f").is_some());
        assert!(imp.take_func("env", "f").is_none());
        assert_eq!(imp.get_global("env", "g"), Some(Value::I32(7)));
        assert_eq!(imp.get_global("env", "missing"), None);
    }

    #[test]
    fn a_later_registration_replaces_an_earlier_one() {
        let mut imp = Imports::new()
            .func("env", "f", |_, _| Ok(vec![Value::I32(1)]))
            .func("env", "g", |_, _| Ok(vec![]))
            .func("env", "f", |_, _| Ok(vec![Value::I32(2)]))
            .global("env", "c", Value::I64(1))
            .global("env", "c", Value::I64(2));
        let mut f = imp.take_func("env", "f").expect("registered");
        let mut ctx = HostCtx { memory: None };
        assert_eq!(f(&mut ctx, &[]).unwrap(), vec![Value::I32(2)]);
        assert!(imp.take_func("env", "f").is_none(), "one entry per name");
        assert!(imp.take_func("env", "g").is_some());
        assert_eq!(imp.get_global("env", "c"), Some(Value::I64(2)));
    }
}
