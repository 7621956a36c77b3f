"""Survey response records.

A :class:`StudentResponse` holds one student's ratings for every item of
the instrument, on both scales, for one wave.  A :class:`WaveResponses`
bundles a whole cohort's responses for one administration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.survey.instrument import Element, Instrument
from repro.survey.scales import Category, validate_likert

__all__ = ["ElementResponse", "StudentResponse", "WaveResponses"]


@dataclass(frozen=True)
class ElementResponse:
    """One student's ratings for one element under one category.

    ``definition`` is the score on the definition item; ``components`` the
    scores on the component items, in instrument order.
    """

    element: str
    category: Category
    definition: int
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_likert(self.definition)
        if not self.components:
            raise ValueError(f"element response {self.element!r} has no component scores")
        for score in self.components:
            validate_likert(score)

    @property
    def all_scores(self) -> tuple[int, ...]:
        return (self.definition, *self.components)


@dataclass(frozen=True)
class StudentResponse:
    """One student's complete response sheet for one wave.

    Maps ``(element name, category)`` to an :class:`ElementResponse`.
    """

    student_id: str
    ratings: Mapping[tuple[str, Category], ElementResponse] = field(default_factory=dict)

    def rating(self, element: str, category: Category) -> ElementResponse:
        try:
            return self.ratings[(element, category)]
        except KeyError:
            raise KeyError(
                f"student {self.student_id!r} has no rating for "
                f"({element!r}, {category.value})"
            ) from None

    def validate_against(self, instrument: Instrument) -> None:
        """Check the sheet is complete and structurally consistent."""
        for element in instrument.elements:
            for category in Category:
                resp = self.rating(element.name, category)
                _check_shape(resp, element)

    def element_names(self) -> set[str]:
        return {name for (name, _cat) in self.ratings}


def _check_shape(resp: ElementResponse, element: Element) -> None:
    if len(resp.components) != len(element.components):
        raise ValueError(
            f"element {element.name!r}: expected {len(element.components)} component "
            f"scores, got {len(resp.components)}"
        )


@dataclass(frozen=True)
class WaveResponses:
    """All responses collected in one survey administration."""

    wave_name: str
    instrument: Instrument
    responses: tuple[StudentResponse, ...]

    def __post_init__(self) -> None:
        ids = [r.student_id for r in self.responses]
        if len(set(ids)) != len(ids):
            raise ValueError(f"wave {self.wave_name!r}: duplicate student ids")

    @property
    def n(self) -> int:
        return len(self.responses)

    def validate(self) -> None:
        """Validate every sheet against the instrument."""
        for response in self.responses:
            response.validate_against(self.instrument)

    def by_student(self) -> dict[str, StudentResponse]:
        return {r.student_id: r for r in self.responses}

    def aligned_with(self, other: "WaveResponses") -> tuple[list[StudentResponse], list[StudentResponse]]:
        """Pair this wave's responses with another wave's, by student id.

        Only students who answered both waves are returned (the paper's
        paired analysis requires complete pairs; with N = 124 in both
        waves the cohorts were identical).
        """
        mine = self.by_student()
        theirs = other.by_student()
        common = sorted(set(mine) & set(theirs))
        if not common:
            raise ValueError("no students answered both waves")
        return [mine[s] for s in common], [theirs[s] for s in common]

