"""Tests for the two-part schema and the security layer."""

import pytest

from repro.metadb import Comparison, Database, Insert, IntegrityError, Select
from repro.schema import GENERIC_SCHEMAS, RHESSI_SCHEMAS, install_all, install_generic, install_rhessi
from repro.security import (
    AuthError,
    ConstraintViolation,
    GROUP_RIGHTS,
    User,
    UserManager,
    check_can_edit,
    check_can_read,
    check_no_dependencies,
    check_right,
    hash_password,
    scoped_where,
    verify_password,
    visibility_predicate,
)

from .oracle_predicate import matches


class TestSchemaInstallation:
    def test_generic_part_installs_alone(self):
        """The generic part must carry no instrument knowledge (§4.1)."""
        database = Database()
        install_generic(database)
        assert len(database.table_names()) == len(GENERIC_SCHEMAS) == 11
        assert "hle" not in database.table_names()

    def test_domain_part_has_seven_tables(self):
        assert len(RHESSI_SCHEMAS) == 7

    def test_full_installation_is_idempotent(self, db):
        install_all(db)  # second call must be a no-op
        assert len(db.table_names()) == len(GENERIC_SCHEMAS) + len(RHESSI_SCHEMAS)

    def test_domain_tables_reference_users(self, db):
        """Every owned domain tuple links to admin_users for rights (§4.1)."""
        db.execute(Insert("admin_users", {
            "user_id": 1, "login": "u", "password_hash": "x",
        }))
        with pytest.raises(IntegrityError):
            db.execute(Insert("hle", {
                "hle_id": 1, "item_id": "h:1", "owner_id": 999,
                "start_time": 0.0, "end_time": 1.0,
            }))
        db.execute(Insert("hle", {
            "hle_id": 1, "item_id": "h:1", "owner_id": 1,
            "start_time": 0.0, "end_time": 1.0,
        }))

    def test_ana_requires_existing_hle(self, db):
        db.execute(Insert("admin_users", {"user_id": 1, "login": "u", "password_hash": "x"}))
        with pytest.raises(IntegrityError):
            db.execute(Insert("ana", {
                "ana_id": 1, "item_id": "a:1", "hle_id": 42, "owner_id": 1,
                "algorithm": "imaging",
            }))

    def test_hle_has_paper_scale_attribute_count(self):
        """HLE tuples carry ~25 attributes, ANA ~45 (§4.1)."""
        hle_schema = next(s for s in RHESSI_SCHEMAS if s().name == "hle")()
        ana_schema = next(s for s in RHESSI_SCHEMAS if s().name == "ana")()
        assert 22 <= len(hle_schema.column_order) <= 30
        assert 40 <= len(ana_schema.column_order) <= 50

    def test_loc_files_unique_per_archive_path(self, db):
        db.execute(Insert("loc_archives", {"archive_id": "a", "root_path": "/a"}))
        db.execute(Insert("loc_files", {
            "file_id": 1, "item_id": "i", "archive_id": "a", "rel_path": "p",
        }))
        with pytest.raises(IntegrityError):
            db.execute(Insert("loc_files", {
                "file_id": 2, "item_id": "j", "archive_id": "a", "rel_path": "p",
            }))


class TestPasswords:
    def test_hash_and_verify(self):
        stored = hash_password("secret")
        assert verify_password("secret", stored)
        assert not verify_password("wrong", stored)

    def test_salts_differ(self):
        assert hash_password("secret") != hash_password("secret")

    def test_malformed_stored_hash(self):
        assert not verify_password("x", "garbage-without-separator")


class TestUserManager:
    def test_create_and_authenticate(self, db):
        users = UserManager(db)
        created = users.create_user("ada", "pw", group="scientist")
        authenticated = users.authenticate("ada", "pw")
        assert authenticated.user_id == created.user_id
        assert authenticated.has_right("analyze")

    def test_group_rights_defaults(self, db):
        users = UserManager(db)
        guest = users.create_user("g", "pw", group="guest")
        assert guest.rights == frozenset(GROUP_RIGHTS["guest"])
        assert not guest.has_right("download")

    def test_admin_has_all_rights(self, db):
        users = UserManager(db)
        admin = users.create_user("root", "pw", group="admin")
        assert admin.is_admin
        assert admin.has_right("upload")

    def test_bad_password_and_unknown_login(self, db):
        users = UserManager(db)
        users.create_user("ada", "pw")
        with pytest.raises(AuthError):
            users.authenticate("ada", "nope")
        with pytest.raises(AuthError):
            users.authenticate("ghost", "pw")

    def test_deactivated_account_rejected(self, db):
        users = UserManager(db)
        ada = users.create_user("ada", "pw")
        users.deactivate(ada.user_id)
        with pytest.raises(AuthError):
            users.authenticate("ada", "pw")

    def test_duplicate_login_rejected(self, db):
        users = UserManager(db)
        users.create_user("ada", "pw")
        with pytest.raises(IntegrityError):
            users.create_user("ada", "other")

    def test_authentication_updates_last_login(self, db):
        users = UserManager(db)
        users.create_user("ada", "pw")
        users.authenticate("ada", "pw")
        row = db.execute(Select("admin_users", where=Comparison("login", "=", "ada")))[0]
        assert row["last_login_at"] is not None

    def test_import_user_idempotent(self, db):
        users = UserManager(db)
        first = users.ensure_import_user()
        second = users.ensure_import_user()
        assert first.user_id == second.user_id

    def test_unknown_group_and_right_rejected(self, db):
        users = UserManager(db)
        with pytest.raises(AuthError):
            users.create_user("x", "pw", group="wizards")
        with pytest.raises(AuthError):
            users.create_user("x", "pw", rights=("fly",))


def _user(user_id=1, rights=("browse", "download", "analyze", "upload"), group="scientist"):
    return User(user_id, f"user{user_id}", group, frozenset(rights))


class TestVisibility:
    def test_anonymous_sees_only_public(self):
        predicate = visibility_predicate(None)
        assert matches(predicate, {"public": True, "owner_id": 5})
        assert not matches(predicate, {"public": False, "owner_id": 5})

    def test_owner_sees_own_private(self):
        predicate = visibility_predicate(_user(5))
        assert matches(predicate, {"public": False, "owner_id": 5})
        assert not matches(predicate, {"public": False, "owner_id": 6})

    def test_admin_sees_everything(self):
        predicate = visibility_predicate(_user(1, rights=("admin",), group="admin"))
        assert matches(predicate, {"public": False, "owner_id": 99})

    def test_scoped_where_combines(self):
        scoped = scoped_where(_user(5), Comparison("kind", "=", "flare"))
        assert matches(scoped, {"kind": "flare", "public": True, "owner_id": 9})
        assert not matches(scoped, {"kind": "grb", "public": True, "owner_id": 9})
        assert not matches(scoped, {"kind": "flare", "public": False, "owner_id": 9})


class TestConstraints:
    def test_read_constraint(self):
        check_can_read(None, {"public": True})
        with pytest.raises(ConstraintViolation):
            check_can_read(None, {"public": False, "owner_id": 1})
        check_can_read(_user(1), {"public": False, "owner_id": 1})

    def test_edit_constraint(self):
        with pytest.raises(ConstraintViolation):
            check_can_edit(None, {"owner_id": 1})
        with pytest.raises(ConstraintViolation):
            check_can_edit(_user(2), {"owner_id": 1})
        check_can_edit(_user(1), {"owner_id": 1})

    def test_right_constraint(self):
        check_right(None, "browse")  # browsing is open to everyone
        with pytest.raises(AuthError):
            check_right(None, "download")
        with pytest.raises(AuthError):
            check_right(_user(1, rights=("browse",)), "analyze")
        check_right(_user(1), "analyze")

    def test_dependency_constraint(self):
        check_no_dependencies(0, "HLE 1")
        with pytest.raises(ConstraintViolation):
            check_no_dependencies(3, "HLE 1")
