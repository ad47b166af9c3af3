//! Portal identity: guest and registered users.
//!
//! "An investigator may use the GARLI web interface in a guest mode, in
//! which they provide their email address for identification, or as a
//! registered user which allows for more sophisticated job tracking
//! features" (paper §III.A).

use serde::{Deserialize, Serialize, Value};
use simkit::IdMap;
use std::collections::HashMap;

/// A portal identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum User {
    /// Guest identified only by email.
    Guest {
        /// Notification address.
        email: String,
    },
    /// Registered account.
    Registered {
        /// Account name.
        username: String,
        /// Notification address.
        email: String,
    },
}

/// Identity errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserError {
    /// Email fails the basic shape check.
    InvalidEmail {
        /// The offending address.
        email: String,
    },
    /// Username empty or malformed.
    InvalidUsername {
        /// The offending name.
        username: String,
    },
}

impl std::fmt::Display for UserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UserError::InvalidEmail { email } => write!(f, "invalid email {email:?}"),
            UserError::InvalidUsername { username } => write!(f, "invalid username {username:?}"),
        }
    }
}

impl std::error::Error for UserError {}

/// Basic email shape check: `local@domain.tld` with no whitespace.
pub fn email_is_valid(email: &str) -> bool {
    let Some((local, domain)) = email.split_once('@') else {
        return false;
    };
    !local.is_empty()
        && !domain.is_empty()
        && domain.contains('.')
        && !domain.starts_with('.')
        && !domain.ends_with('.')
        && !email.chars().any(char::is_whitespace)
        && email.matches('@').count() == 1
}

impl User {
    /// Create a guest.
    pub fn guest(email: &str) -> Result<User, UserError> {
        if !email_is_valid(email) {
            return Err(UserError::InvalidEmail {
                email: email.to_string(),
            });
        }
        Ok(User::Guest {
            email: email.to_string(),
        })
    }

    /// Create a registered user.
    pub fn registered(username: &str, email: &str) -> Result<User, UserError> {
        if username.is_empty()
            || !username
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(UserError::InvalidUsername {
                username: username.to_string(),
            });
        }
        if !email_is_valid(email) {
            return Err(UserError::InvalidEmail {
                email: email.to_string(),
            });
        }
        Ok(User::Registered {
            username: username.to_string(),
            email: email.to_string(),
        })
    }

    /// The notification address.
    pub fn email(&self) -> &str {
        match self {
            User::Guest { email } | User::Registered { email, .. } => email,
        }
    }

    /// Registered users get the richer job-tracking features.
    pub fn can_track_history(&self) -> bool {
        matches!(self, User::Registered { .. })
    }

    /// The interning key: registered accounts are unique by username,
    /// guests by email (the only identifier they ever provide).
    fn intern_key(&self) -> String {
        match self {
            User::Guest { email } => format!("guest:{email}"),
            User::Registered { username, .. } => format!("user:{username}"),
        }
    }
}

/// A stable dense user id, assigned by a [`UserDirectory`] at interning
/// time. Hot paths (per-user ledgers, tenant books, credit tables) key on
/// this instead of cloning `String` emails per lookup.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u64);

/// Interns [`User`] identities into stable dense [`UserId`]s.
///
/// Ids are assigned in first-seen order and never reused. Interning the
/// same identity again returns the existing id (registered accounts are
/// keyed by username, guests by email; the first registration under a key
/// wins). The reverse map is derived state rebuilt on restore, so a
/// snapshot carries only the id-ordered user list.
#[derive(Debug, Default, Serialize)]
pub struct UserDirectory {
    users: IdMap<User>,
    next: u64,
    /// Derived: intern key → id. Never serialized.
    #[serde(skip)]
    by_key: HashMap<String, u64>,
}

impl UserDirectory {
    /// An empty directory.
    pub fn new() -> UserDirectory {
        UserDirectory::default()
    }

    /// Intern an identity: returns the existing id when the key is known,
    /// otherwise assigns the next dense id.
    pub fn intern(&mut self, user: User) -> UserId {
        let key = user.intern_key();
        if let Some(&id) = self.by_key.get(&key) {
            return UserId(id);
        }
        let id = self.next;
        self.next += 1;
        self.users.insert(id, user);
        self.by_key.insert(key, id);
        UserId(id)
    }

    /// The identity behind an id.
    pub fn get(&self, id: UserId) -> Option<&User> {
        self.users.get(id.0)
    }

    /// The id an identity was interned under, if any.
    pub fn id_of(&self, user: &User) -> Option<UserId> {
        self.by_key.get(&user.intern_key()).copied().map(UserId)
    }

    /// Interned identities so far.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Iterate `(id, identity)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &User)> {
        self.users.iter().map(|(id, u)| (UserId(id), u))
    }
}

impl Deserialize for UserDirectory {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for UserDirectory"))?;
        let users: IdMap<User> = serde::field(fields, "users")?;
        // The reverse map is derived — rebuild it from the user list so
        // snapshot bytes stay free of redundant state.
        let by_key = users.iter().map(|(id, u)| (u.intern_key(), id)).collect();
        Ok(UserDirectory {
            users,
            next: serde::field(fields, "next")?,
            by_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_requires_valid_email() {
        assert!(User::guest("a@b.org").is_ok());
        assert!(User::guest("not-an-email").is_err());
        assert!(User::guest("two@@b.org").is_err());
        assert!(User::guest("a@b").is_err());
        assert!(User::guest("a b@c.org").is_err());
        assert!(User::guest("a@.org").is_err());
    }

    #[test]
    fn registered_requires_valid_username() {
        assert!(User::registered("alice_1", "a@b.org").is_ok());
        assert!(User::registered("", "a@b.org").is_err());
        assert!(User::registered("bad name", "a@b.org").is_err());
    }

    #[test]
    fn interning_is_stable_and_round_trips() {
        let mut dir = UserDirectory::new();
        let alice = dir.intern(User::registered("alice", "a@x.org").unwrap());
        let guest = dir.intern(User::guest("g@x.org").unwrap());
        let bob = dir.intern(User::registered("bob", "b@x.org").unwrap());
        assert_eq!((alice, guest, bob), (UserId(0), UserId(1), UserId(2)));
        // Re-interning the same key returns the same id — even when the
        // registered account shows up with a new notification address.
        assert_eq!(dir.intern(User::guest("g@x.org").unwrap()), guest);
        assert_eq!(
            dir.intern(User::registered("alice", "new@x.org").unwrap()),
            alice
        );
        // Guest and registered namespaces never collide.
        let guest_alice = dir.intern(User::guest("alice@x.org").unwrap());
        assert_ne!(guest_alice, alice);
        assert_eq!(dir.len(), 4);

        // Snapshot → restore: same ids resolve to the same identities and
        // interning picks up where it left off (no id reuse).
        let restored = UserDirectory::from_value(&dir.to_value()).unwrap();
        assert_eq!(restored.len(), dir.len());
        for (id, user) in dir.iter() {
            assert_eq!(restored.get(id), Some(user));
            assert_eq!(restored.id_of(user), Some(id));
        }
        let mut restored = restored;
        let carol = restored.intern(User::registered("carol", "c@x.org").unwrap());
        assert_eq!(carol, UserId(4));
        // Byte-stable snapshots: re-interning the same identities in the
        // same order produces identical bytes (the derived reverse map
        // stays out of them).
        let mut rebuilt = UserDirectory::new();
        for (_, u) in dir.iter() {
            rebuilt.intern(u.clone());
        }
        assert_eq!(
            serde_json::to_string(&dir.to_value()).unwrap(),
            serde_json::to_string(&rebuilt.to_value()).unwrap()
        );
    }

    #[test]
    fn tracking_privileges() {
        let g = User::guest("g@x.org").unwrap();
        let r = User::registered("bob", "b@x.org").unwrap();
        assert!(!g.can_track_history());
        assert!(r.can_track_history());
        assert_eq!(g.email(), "g@x.org");
        assert_eq!(r.email(), "b@x.org");
    }
}
