"""Tests for the chain's admin set and the Bell-LaPadula cohesion model."""

from repro.authz import BellLaPadulaModel, SecurityLevel
from repro.core import Blockchain, ChainConfig, EntryReference


def login(user):
    return {"D": f"Login {user}", "K": user, "S": f"sig_{user}"}


class TestAdminsOnChain:
    def test_deletion_authorizer_with_chain(self):
        # Use a non-shrinking configuration so block numbers stay stable.
        chain = Blockchain(ChainConfig(sequence_length=3), admins=("ADMIN",))
        alpha_block = chain.add_entry_block(login("ALPHA"), "ALPHA")
        bravo_block = chain.add_entry_block(login("BRAVO"), "BRAVO")
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

    def test_admin_set_is_fixed_when_the_chain_is_built(self):
        admins = ["ADMIN"]
        chain = Blockchain(ChainConfig(sequence_length=3), admins=admins)
        admins.append("CHARLIE")
        assert chain.admins == frozenset({"ADMIN"})
        bravo_block = chain.add_entry_block(login("BRAVO"), "BRAVO")
        decision = chain.request_deletion(EntryReference(bravo_block.block_number, 1), "CHARLIE")
        assert not decision.is_approved
        assert "'CHARLIE'" in decision.reason

    def test_config_can_withhold_foreign_deletion_from_admins(self):
        chain = Blockchain(
            ChainConfig(sequence_length=3, allow_foreign_deletion_by_admin=False),
            admins=("ADMIN",),
        )
        bravo_block = chain.add_entry_block(login("BRAVO"), "BRAVO")
        admin_block = chain.add_entry_block(login("ADMIN"), "ADMIN")
        # The admin keeps the owner's right over its own entry ...
        assert chain.request_deletion(EntryReference(admin_block.block_number, 1), "ADMIN").is_approved
        chain.seal_block()
        # ... but without the flag holds no master right over a foreign one.
        assert not chain.request_deletion(
            EntryReference(bravo_block.block_number, 1), "ADMIN"
        ).is_approved


class TestBellLaPadula:
    def test_read_and_delete_rules(self):
        model = BellLaPadulaModel()
        model.clear_subject("officer", SecurityLevel.SECRET)
        model.clear_subject("intern", SecurityLevel.PUBLIC)
        secret_entry = EntryReference(3, 1)
        model.classify_entry(secret_entry, SecurityLevel.SECRET)
        assert model.may_read("officer", secret_entry)
        assert not model.may_read("intern", secret_entry)
        assert model.may_delete("officer", secret_entry)
        assert not model.may_delete("intern", secret_entry)

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
