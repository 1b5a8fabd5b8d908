"""Data retention: schedules, destruction, and the withdrawal loop.

Consent (Section 6.2.3) is only half of data protection; the other half
is what happens to collected data afterwards.  A retention policy says
how long each data category may be kept; an inventory tracks what was
collected from whom; and the audit surfaces the two failure modes IRBs
actually find — data kept past its retention window, and data from
withdrawn participants that nobody destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ethics.consent import ConsentRegistry


@dataclass(frozen=True, slots=True)
class RetentionRule:
    """Retention rule for one data category.

    Attributes:
        category: Data category ("recording", "transcript", "fieldnote").
        max_age: Maximum clock units a record may be kept after
            collection (None = no age limit).
        destroy_on_withdrawal: Destroy the participant's records of this
            category when they withdraw consent.
        withdrawal_grace: Clock units allowed between withdrawal and
            destruction before the audit flags the record.
    """

    category: str
    max_age: int | None = None
    destroy_on_withdrawal: bool = True
    withdrawal_grace: int = 1

    def __post_init__(self) -> None:
        if self.max_age is not None and self.max_age < 0:
            raise ValueError("max_age must be >= 0 when set")
        if self.withdrawal_grace < 0:
            raise ValueError("withdrawal_grace must be >= 0")


@dataclass
class DataRecord:
    """One collected datum.

    Attributes:
        record_id: Unique id.
        participant_id: Whose data it is.
        category: Data category (must match a rule to be governed).
        collected_at: Collection clock value.
        destroyed_at: Destruction clock value (None while held).
    """

    record_id: str
    participant_id: str
    category: str
    collected_at: int
    destroyed_at: int | None = None

    @property
    def held(self) -> bool:
        """True while the record exists."""
        return self.destroyed_at is None


class RetentionManager:
    """Inventory plus policy plus the consent registry's withdrawal feed.

    Example:
        >>> from repro.ethics.consent import ConsentRegistry
        >>> registry = ConsentRegistry()
        >>> _ = registry.grant("p1", {"interview"}, now=0)
        >>> manager = RetentionManager(
        ...     [RetentionRule("transcript", max_age=10)], registry)
        >>> _ = manager.collect("r1", "p1", "transcript", now=0)
        >>> manager.due_for_destruction(now=11)
        ['r1']
    """

    def __init__(
        self,
        rules: list[RetentionRule],
        consent: ConsentRegistry,
    ) -> None:
        self._rules: dict[str, RetentionRule] = {}
        for rule in rules:
            if rule.category in self._rules:
                raise ValueError(f"duplicate rule for {rule.category!r}")
            self._rules[rule.category] = rule
        self._consent = consent
        self._records: dict[str, DataRecord] = {}
        # participant -> withdrawal clock, fed by note_withdrawal.
        self._withdrawals: dict[str, int] = {}

    def collect(
        self, record_id: str, participant_id: str, category: str, now: int
    ) -> DataRecord:
        """Register a collected record.

        Requires a governing rule for the category — collecting data no
        policy covers is itself the audit finding, so it fails loudly.
        """
        if category not in self._rules:
            raise KeyError(
                f"no retention rule covers category {category!r}"
            )
        if record_id in self._records:
            raise ValueError(f"duplicate record id: {record_id!r}")
        record = DataRecord(record_id, participant_id, category, now)
        self._records[record_id] = record
        return record

    def note_withdrawal(self, participant_id: str, now: int) -> None:
        """Record that a participant withdrew (call alongside
        :meth:`~repro.ethics.consent.ConsentRegistry.withdraw`)."""
        self._withdrawals.setdefault(participant_id, now)

    def destroy(self, record_id: str, now: int) -> None:
        """Mark a record destroyed."""
        record = self._records[record_id]
        if not record.held:
            raise ValueError(f"record already destroyed: {record_id!r}")
        record.destroyed_at = now

    def records(self, held_only: bool = False) -> list[DataRecord]:
        """All records, sorted by id."""
        return sorted(
            (r for r in self._records.values() if not held_only or r.held),
            key=lambda r: r.record_id,
        )

    def due_for_destruction(self, now: int) -> list[str]:
        """Held record ids whose retention window has closed.

        A record is due when its age exceeds the rule's ``max_age``, or
        its participant withdrew and the rule destroys on withdrawal.
        """
        due = []
        for record in self.records(held_only=True):
            rule = self._rules[record.category]
            if rule.max_age is not None and now - record.collected_at > rule.max_age:
                due.append(record.record_id)
                continue
            withdrawal = self._withdrawals.get(record.participant_id)
            if rule.destroy_on_withdrawal and withdrawal is not None and now >= withdrawal:
                due.append(record.record_id)
        return due

    def audit(self, now: int) -> dict:
        """The findings an IRB data audit looks for.

        Returns:
            Dict with ``held_records``, ``overdue_age`` (held past
            max_age), ``overdue_withdrawal`` (held past the withdrawal
            grace of a withdrawn participant), and ``clean`` (True when
            both lists are empty).
        """
        overdue_age = []
        overdue_withdrawal = []
        for record in self.records(held_only=True):
            rule = self._rules[record.category]
            if (
                rule.max_age is not None
                and now - record.collected_at > rule.max_age
            ):
                overdue_age.append(record.record_id)
            withdrawal = self._withdrawals.get(record.participant_id)
            if (
                rule.destroy_on_withdrawal
                and withdrawal is not None
                and now - withdrawal > rule.withdrawal_grace
            ):
                overdue_withdrawal.append(record.record_id)
        return {
            "held_records": sum(1 for r in self._records.values() if r.held),
            "overdue_age": overdue_age,
            "overdue_withdrawal": overdue_withdrawal,
            "clean": not overdue_age and not overdue_withdrawal,
        }
