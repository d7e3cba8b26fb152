//! The Syrup Map API of Table 1 with per-application permissions.
//!
//! §3.4: maps are "pinned to sysfs by syrupd so that different programs
//! from the same user can access them. We can control access to maps using
//! file system permissions." This module reproduces that: maps live in a
//! path namespace rooted at `/syrup/<app>/…`, and an application may only
//! open paths under its own prefix.

use core::fmt;

use syrup_ebpf::maps::{MapDef, MapError, MapId, MapRef, MapRegistry};

/// Identifies a registered application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Permission failures from the Map API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapPermError {
    /// The path is outside the caller's namespace.
    Denied {
        /// The requesting application.
        app: AppId,
        /// The offending path.
        path: String,
    },
    /// No map is pinned at the path.
    NotFound(String),
    /// Underlying map operation failed.
    Map(MapError),
}

impl fmt::Display for MapPermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapPermError::Denied { app, path } => {
                write!(f, "{app} may not access `{path}`")
            }
            MapPermError::NotFound(path) => write!(f, "no map pinned at `{path}`"),
            MapPermError::Map(e) => write!(f, "map error: {e}"),
        }
    }
}

impl std::error::Error for MapPermError {}

impl From<MapError> for MapPermError {
    fn from(e: MapError) -> Self {
        MapPermError::Map(e)
    }
}

/// The per-application view of the pinned-map namespace.
///
/// Constructed by `Syrupd` for each registered application; wraps the
/// shared [`MapRegistry`] with prefix-based access control.
#[derive(Debug, Clone)]
pub struct SyrupMaps {
    app: AppId,
    registry: MapRegistry,
}

impl SyrupMaps {
    /// Creates the view; `Syrupd::register_app` is the normal entry point.
    pub fn new(app: AppId, registry: MapRegistry) -> Self {
        SyrupMaps { app, registry }
    }

    /// The path prefix this application owns.
    pub fn prefix(&self) -> String {
        format!("/syrup/{}/", self.app.0)
    }

    fn check(&self, path: &str) -> Result<(), MapPermError> {
        if path.starts_with(&self.prefix()) {
            Ok(())
        } else {
            Err(MapPermError::Denied {
                app: self.app,
                path: path.to_string(),
            })
        }
    }

    /// `syr_map_open`: opens a map pinned under this app's namespace.
    pub fn open(&self, path: &str) -> Result<MapRef, MapPermError> {
        self.check(path)?;
        self.registry
            .open(path)
            .ok_or_else(|| MapPermError::NotFound(path.to_string()))
    }

    /// Creates a map and pins it at `path` (must be inside the app's
    /// namespace). Used by applications for custom cross-layer maps.
    pub fn create_pinned(&self, name: &str, def: MapDef) -> Result<MapRef, MapPermError> {
        let path = format!("{}{}", self.prefix(), name);
        let id = self.registry.create(def);
        self.registry.pin(id, path.clone())?;
        self.registry
            .open(&path)
            .ok_or(MapPermError::NotFound(path))
    }

    /// `syr_map_lookup_elem` in the Table 1 u32→u64 shape.
    pub fn lookup(&self, map: &MapRef, key: u32) -> Result<Option<u64>, MapPermError> {
        Ok(map.lookup_u64(key)?)
    }

    /// `syr_map_update_elem` in the Table 1 u32→u64 shape.
    pub fn update(&self, map: &MapRef, key: u32, value: u64) -> Result<(), MapPermError> {
        Ok(map.update_u64(key, value)?)
    }

    /// The application this view belongs to.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Pins an existing map into this app's namespace (used by `syrupd`
    /// when deploying policies whose files declare maps).
    pub fn pin_existing(&self, id: MapId, name: &str) -> Result<String, MapError> {
        let path = format!("{}{}", self.prefix(), name);
        self.registry.pin(id, path.clone())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SyrupMaps, SyrupMaps) {
        let registry = MapRegistry::new();
        (
            SyrupMaps::new(AppId(1), registry.clone()),
            SyrupMaps::new(AppId(2), registry),
        )
    }

    #[test]
    fn create_and_reopen_within_namespace() {
        let (app1, _) = setup();
        let m = app1.create_pinned("tokens", MapDef::u64_array(8)).unwrap();
        app1.update(&m, 0, 42).unwrap();
        let reopened = app1.open("/syrup/1/tokens").unwrap();
        assert_eq!(app1.lookup(&reopened, 0).unwrap(), Some(42));
    }

    #[test]
    fn cross_app_access_is_denied() {
        let (app1, app2) = setup();
        app1.create_pinned("tokens", MapDef::u64_array(8)).unwrap();
        let err = app2.open("/syrup/1/tokens").unwrap_err();
        assert!(matches!(err, MapPermError::Denied { app: AppId(2), .. }));
    }

    #[test]
    fn prefix_trickery_is_denied() {
        let (app1, _) = setup();
        // Sibling prefix that merely *starts* like the app's number.
        assert!(matches!(
            app1.open("/syrup/11/x"),
            Err(MapPermError::Denied { .. })
        ));
        assert!(matches!(
            app1.open("/other/1/x"),
            Err(MapPermError::Denied { .. })
        ));
    }

    #[test]
    fn missing_path_inside_namespace_is_not_found() {
        let (app1, _) = setup();
        assert!(matches!(
            app1.open("/syrup/1/nothing"),
            Err(MapPermError::NotFound(_))
        ));
    }

    #[test]
    fn same_app_multiple_handles_share_state() {
        // "Different programs from the same user can access them" (§3.4).
        let registry = MapRegistry::new();
        let view_a = SyrupMaps::new(AppId(7), registry.clone());
        let view_b = SyrupMaps::new(AppId(7), registry);
        let m = view_a
            .create_pinned("shared", MapDef::u64_array(1))
            .unwrap();
        view_a.update(&m, 0, 9).unwrap();
        let m2 = view_b.open("/syrup/7/shared").unwrap();
        assert_eq!(view_b.lookup(&m2, 0).unwrap(), Some(9));
    }
}
