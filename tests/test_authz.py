"""Tests for role-based authorization and the Bell-LaPadula cohesion model."""

import pytest

from repro.authz import (
    AccessController,
    BellLaPadulaModel,
    Permission,
    Role,
    SecurityLevel,
)
from repro.core import Blockchain, ChainConfig, EntryReference
from repro.core.errors import AuthorizationError


def login(user):
    return {"D": f"Login {user}", "K": user, "S": f"sig_{user}"}


class TestAccessController:
    def test_default_role_is_user(self):
        controller = AccessController()
        assert controller.role_of("ALPHA") is Role.USER
        assert controller.has_permission("ALPHA", Permission.DELETE_OWN)
        assert not controller.has_permission("ALPHA", Permission.DELETE_FOREIGN)

    def test_admin_assignment(self):
        controller = AccessController()
        controller.assign_admins(["anchor-0", "anchor-1"])
        assert controller.role_of("anchor-0") is Role.ADMIN
        assert controller.has_permission("anchor-0", Permission.DELETE_FOREIGN)
        assert controller.statistics()["admin"] == 2

    def test_auditor_cannot_delete(self):
        controller = AccessController()
        controller.assign("AUDIT", Role.AUDITOR)
        assert not controller.has_permission("AUDIT", Permission.DELETE_OWN)
        with pytest.raises(AuthorizationError):
            controller.require("AUDIT", Permission.DELETE_OWN)

    def test_no_default_role(self):
        controller = AccessController(default_role=None)
        with pytest.raises(AuthorizationError):
            controller.role_of("stranger")
        assert not controller.has_permission("stranger", Permission.READ_CHAIN)

    def test_deletion_authorizer_with_chain(self):
        controller = AccessController()
        controller.assign("ADMIN", Role.ADMIN)
        controller.assign("AUDIT", Role.AUDITOR)
        # Use a non-shrinking configuration so block numbers stay stable.
        chain = Blockchain(
            ChainConfig(sequence_length=3), authorizer=controller.deletion_authorizer()
        )
        alpha_block = chain.add_entry_block(login("ALPHA"), "ALPHA")
        bravo_block = chain.add_entry_block(login("BRAVO"), "BRAVO")
        audit_block = chain.add_entry_block(login("AUDIT"), "AUDIT")
        # Owner may delete own entry.
        assert chain.request_deletion(EntryReference(alpha_block.block_number, 1), "ALPHA").is_approved
        chain.seal_block()
        # Admin may delete a foreign entry.
        assert chain.request_deletion(EntryReference(bravo_block.block_number, 1), "ADMIN").is_approved
        chain.seal_block()
        # A plain user may not delete foreign entries.
        assert not chain.request_deletion(
            EntryReference(bravo_block.block_number, 1), "CHARLIE"
        ).is_approved
        chain.seal_block()
        # An auditor may not even delete its own entries.
        assert not chain.request_deletion(
            EntryReference(audit_block.block_number, 1), "AUDIT"
        ).is_approved


class TestBellLaPadula:
    def test_read_write_delete_rules(self):
        model = BellLaPadulaModel()
        model.clear_subject("officer", SecurityLevel.SECRET)
        model.clear_subject("intern", SecurityLevel.PUBLIC)
        secret_entry = EntryReference(3, 1)
        model.classify_entry(secret_entry, SecurityLevel.SECRET)
        assert model.may_read("officer", secret_entry)
        assert not model.may_read("intern", secret_entry)
        assert model.may_write("intern", secret_entry)   # write up allowed
        assert not model.may_write("officer", EntryReference(4, 1))  # write down denied
        assert model.may_delete("officer", secret_entry)
        assert not model.may_delete("intern", secret_entry)
        with pytest.raises(AuthorizationError):
            model.require_delete("intern", secret_entry)

    def test_unregistered_subjects_and_entries_take_the_defaults(self):
        model = BellLaPadulaModel(default_clearance=SecurityLevel.INTERNAL)
        model.clear_subject("officer", SecurityLevel.SECRET)
        assert model.clearance_of("officer") is SecurityLevel.SECRET
        assert model.clearance_of("stranger") is SecurityLevel.INTERNAL

    def test_classification_is_keyed_by_block_and_entry_number(self):
        model = BellLaPadulaModel(default_classification=SecurityLevel.CONFIDENTIAL)
        model.classify_entry(EntryReference(3, 1), SecurityLevel.PUBLIC)
        assert model.classification_of(EntryReference(3, 1)) is SecurityLevel.PUBLIC
        assert model.classification_of(EntryReference(3, 2)) is SecurityLevel.CONFIDENTIAL
        assert model.classification_of(EntryReference(1, 3)) is SecurityLevel.CONFIDENTIAL

    def test_blp_cohesion_checker_on_chain(self):
        model = BellLaPadulaModel()
        model.clear_subject("OFFICER", SecurityLevel.SECRET)
        model.clear_subject("INTERN", SecurityLevel.PUBLIC)
        chain = Blockchain(
            ChainConfig.paper_evaluation(),
            cohesion_checker=model.as_cohesion_checker(),
            admins=["OFFICER", "INTERN"],
        )
        chain.add_entry_block(login("ALPHA"), "ALPHA")
        model.classify_entry(EntryReference(1, 1), SecurityLevel.CONFIDENTIAL)
        assert chain.request_deletion(EntryReference(1, 1), "OFFICER").is_approved
        assert not chain.request_deletion(EntryReference(1, 1), "INTERN").is_approved
