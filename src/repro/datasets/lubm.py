"""LUBM-style data generator (Guo, Pan & Heflin 2005), decentralized.

One endpoint per university, as in the paper's setup.  Each university
contains departments, professors, courses, and students, with the LUBM
interlink structure: students' ``undergraduateDegreeFrom`` and
professors' ``mastersDegreeFrom`` / ``doctoralDegreeFrom`` point to a
random university, which may be *remote* — an IRI managed by another
endpoint.  As in the raw LUBM data files, referenced remote universities
are **not** re-described locally (no local ``rdf:type``/``name``
triples); that property is what makes the paper's Q1 and Q2 disjoint
under LADE's type-constrained locality checks.

Everything is seeded and deterministic.  The default profile yields
roughly 1.5-2K triples per university — the paper's 138K triples per
university scaled down for pure Python, with the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.endpoint.endpoint import Endpoint
from repro.endpoint.federation import Federation
from repro.net import regions as regions_module
from repro.rdf.namespaces import RDF_TYPE, UB
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple


@dataclass(frozen=True)
class UniversityProfile:
    """Entity counts per university (the scale knob)."""

    departments: int = 3
    professors_per_department: int = 4
    courses_per_professor: int = 2
    graduate_students_per_department: int = 10
    undergraduate_students_per_department: int = 12
    courses_taken_per_student: int = 2
    #: Probability a student's/professor's degree is from the local
    #: university; the rest go to a uniformly random (possibly remote)
    #: one — LUBM's interlink structure.
    local_degree_probability: float = 0.2


SMALL_PROFILE = UniversityProfile()

#: Larger universities for the head-to-head benchmarks (Figs 3, 12, 14c):
#: enough students that one-triple-pattern-at-a-time engines pay the
#: paper-visible bound-join penalty.
BENCH_PROFILE = UniversityProfile(
    departments=4,
    professors_per_department=5,
    courses_per_professor=2,
    graduate_students_per_department=60,
    undergraduate_students_per_department=80,
)

#: Smaller universities for the 256-endpoint scalability runs.
TINY_PROFILE = UniversityProfile(
    departments=2,
    professors_per_department=2,
    courses_per_professor=2,
    graduate_students_per_department=4,
    undergraduate_students_per_department=5,
)


def scaled_profile(scale: float, base: UniversityProfile = BENCH_PROFILE) -> UniversityProfile:
    """``base`` with departments and student bodies multiplied by ``scale``.

    Triples per university grow roughly quadratically in ``scale``
    (departments × students-per-department both scale), so modest factors
    reach paper-sized endpoints: the array-substrate scale gate uses this
    to build single endpoints holding ≥10⁵ triples.  Faculty size per
    department and the interlink probabilities stay fixed — the data
    *shape* (selectivities, locality) is preserved, only the volume moves.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    scaled = lambda value: max(1, round(value * scale))  # noqa: E731
    return UniversityProfile(
        departments=scaled(base.departments),
        professors_per_department=base.professors_per_department,
        courses_per_professor=base.courses_per_professor,
        graduate_students_per_department=scaled(base.graduate_students_per_department),
        undergraduate_students_per_department=scaled(
            base.undergraduate_students_per_department
        ),
        courses_taken_per_student=base.courses_taken_per_student,
        local_degree_probability=base.local_degree_probability,
    )


def university_iri(index: int) -> IRI:
    return IRI(f"http://www.university{index}.example.org/university")


class _UniversityBuilder:
    """Generates one university's triples."""

    def __init__(self, index: int, total: int, profile: UniversityProfile, rng: random.Random):
        self.index = index
        self.total = total
        self.profile = profile
        self.rng = rng
        self.base = f"http://www.university{index}.example.org/"
        self.triples: list[Triple] = []

    def iri(self, local: str) -> IRI:
        return IRI(self.base + local)

    def add(self, s, p, o) -> None:
        self.triples.append(Triple(s, p, o))

    def degree_university(self) -> IRI:
        """The local university, or a random one (possibly remote)."""
        if self.total == 1 or self.rng.random() < self.profile.local_degree_probability:
            return university_iri(self.index)
        return university_iri(self.rng.randrange(self.total))

    def build(self) -> list[Triple]:
        profile = self.profile
        university = university_iri(self.index)
        self.add(university, RDF_TYPE, UB.University)
        self.add(university, UB.name, Literal(f"University{self.index}"))
        self.add(university, UB.address, Literal(f"{self.index} College Road"))

        for dept_index in range(profile.departments):
            department = self.iri(f"department{dept_index}")
            self.add(department, RDF_TYPE, UB.Department)
            self.add(department, UB.name, Literal(f"Department{dept_index}"))
            self.add(department, UB.subOrganizationOf, university)

            professors: list[IRI] = []
            courses: list[IRI] = []
            course_of: dict[IRI, IRI] = {}
            for prof_index in range(profile.professors_per_department):
                professor = self.iri(f"department{dept_index}/professor{prof_index}")
                professors.append(professor)
                prof_type = UB.FullProfessor if prof_index == 0 else UB.AssociateProfessor
                self.add(professor, RDF_TYPE, prof_type)
                self.add(professor, UB.name, Literal(f"Professor{dept_index}_{prof_index}"))
                self.add(professor, UB.worksFor, department)
                self.add(
                    professor,
                    UB.emailAddress,
                    Literal(f"prof{dept_index}_{prof_index}@university{self.index}.example.org"),
                )
                self.add(professor, UB.undergraduateDegreeFrom, self.degree_university())
                self.add(professor, UB.mastersDegreeFrom, self.degree_university())
                self.add(professor, UB.doctoralDegreeFrom, self.degree_university())
                if prof_index == 0:
                    self.add(professor, UB.headOf, department)
                for course_index in range(profile.courses_per_professor):
                    course = self.iri(
                        f"department{dept_index}/course{prof_index}_{course_index}"
                    )
                    courses.append(course)
                    course_of[course] = professor
                    course_type = UB.GraduateCourse if course_index % 2 == 0 else UB.Course
                    self.add(course, RDF_TYPE, course_type)
                    self.add(
                        course, UB.name, Literal(f"Course{dept_index}_{prof_index}_{course_index}")
                    )
                    self.add(professor, UB.teacherOf, course)

            for student_index in range(profile.graduate_students_per_department):
                student = self.iri(f"department{dept_index}/gradstudent{student_index}")
                self.add(student, RDF_TYPE, UB.GraduateStudent)
                self.add(student, UB.name, Literal(f"GradStudent{dept_index}_{student_index}"))
                self.add(student, UB.memberOf, department)
                self.add(student, UB.undergraduateDegreeFrom, self.degree_university())
                # Round-robin advisors so every professor advises someone,
                # and the first course taken is the advisor's first
                # (graduate) course — LUBM Q9-style queries stay answerable
                # at every endpoint, which LADE's locality checks rely on.
                advisor = professors[student_index % len(professors)]
                self.add(student, UB.advisor, advisor)
                advisor_courses = [c for c in courses if course_of[c] == advisor]
                taken = {advisor_courses[0]}
                while len(taken) < min(profile.courses_taken_per_student, len(courses)):
                    taken.add(self.rng.choice(courses))
                for course in sorted(taken, key=lambda iri: iri.value):
                    self.add(student, UB.takesCourse, course)

            for student_index in range(profile.undergraduate_students_per_department):
                student = self.iri(f"department{dept_index}/undergrad{student_index}")
                self.add(student, RDF_TYPE, UB.UndergraduateStudent)
                self.add(student, UB.name, Literal(f"Undergrad{dept_index}_{student_index}"))
                self.add(student, UB.memberOf, department)
                # Round-robin plus one random course: every course ends up
                # taken by at least one student (given enough undergrads).
                taken_courses = {courses[student_index % len(courses)]}
                taken_courses.add(self.rng.choice(courses))
                for course in sorted(taken_courses, key=lambda iri: iri.value):
                    self.add(student, UB.takesCourse, course)

        return self.triples


def generate_university(
    index: int,
    total: int,
    profile: UniversityProfile = SMALL_PROFILE,
    seed: int = 42,
) -> list[Triple]:
    """Generate the triples of one university endpoint."""
    rng = random.Random(f"{seed}:{index}:{total}")
    return _UniversityBuilder(index, total, profile, rng).build()


def build_federation(
    universities: int,
    profile: UniversityProfile = SMALL_PROFILE,
    seed: int = 42,
    geo: bool = False,
) -> Federation:
    """A federation with one endpoint per university.

    ``geo=True`` spreads the endpoints over the Azure regions used in the
    paper's geo-distributed experiments.
    """
    regions = (
        regions_module.assign_regions(universities)
        if geo
        else [regions_module.LOCAL] * universities
    )
    federation = Federation()
    for index in range(universities):
        endpoint = Endpoint(
            name=f"university{index}",
            triples=generate_university(index, universities, profile, seed),
            region=regions[index],
        )
        federation.add(endpoint)
    return federation


# --------------------------------------------------------------------------
# The paper's LUBM queries (Sec VI: Q1=LUBM Q2, Q2=LUBM Q9, Q3=LUBM Q13,
# Q4 = a Q9 variation fetching remote-university information).

_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


def query_q1() -> str:
    """LUBM Q2: the student/department/university triangle (disjoint)."""
    return _PREFIX + """
SELECT ?x ?y ?z WHERE {
  ?x a ub:GraduateStudent .
  ?y a ub:University .
  ?z a ub:Department .
  ?x ub:memberOf ?z .
  ?z ub:subOrganizationOf ?y .
  ?x ub:undergraduateDegreeFrom ?y .
}
"""


def query_q2() -> str:
    """LUBM Q9: students taking a course taught by their advisor (disjoint)."""
    return _PREFIX + """
SELECT ?x ?y ?z WHERE {
  ?x a ub:GraduateStudent .
  ?y a ub:FullProfessor .
  ?z a ub:GraduateCourse .
  ?x ub:advisor ?y .
  ?y ub:teacherOf ?z .
  ?x ub:takesCourse ?z .
}
"""


def query_q3(university_index: int = 0) -> str:
    """LUBM Q13: graduate students with an undergraduate degree from
    university0 (GJV from source-selection information alone)."""
    return _PREFIX + f"""
SELECT ?x WHERE {{
  ?x a ub:GraduateStudent .
  ?x ub:undergraduateDegreeFrom <{university_iri(university_index).value}> .
}}
"""


def query_q4() -> str:
    """Q9 variation: also fetch the advisor's (possibly remote) alma
    mater's name — forces a cross-endpoint join like the paper's Qa."""
    return _PREFIX + """
SELECT ?x ?y ?u ?n WHERE {
  ?x a ub:GraduateStudent .
  ?x ub:advisor ?y .
  ?y ub:teacherOf ?z .
  ?x ub:takesCourse ?z .
  ?y ub:doctoralDegreeFrom ?u .
  ?u ub:name ?n .
}
"""


def query_q5() -> str:
    """Crossing fan-out: every graduate student at the university where
    a full professor earned their doctorate.  The crossing join has high
    fan-out (one remote university expands to all of its students), the
    regime where shipping join *inputs* beats shipping join results."""
    return _PREFIX + """
SELECT ?y ?u ?x WHERE {
  ?y a ub:FullProfessor .
  ?y ub:doctoralDegreeFrom ?u .
  ?z ub:subOrganizationOf ?u .
  ?x ub:memberOf ?z .
  ?x a ub:GraduateStudent .
}
"""


def query_q6() -> str:
    """Double crossing: full professors with the names of both their
    masters and doctoral universities.  Two independent crossing edges
    (three fragments), each against the name predicate — almost every
    locally-named entity is *not* a referenced university: join-value
    digests prune the name fragments to nearly nothing, and bound joins
    over the professors' universities fetch nearly nothing either."""
    return _PREFIX + """
SELECT ?y ?n ?m WHERE {
  ?y a ub:FullProfessor .
  ?y ub:mastersDegreeFrom ?u .
  ?u ub:name ?n .
  ?y ub:doctoralDegreeFrom ?v .
  ?v ub:name ?m .
}
"""


def queries() -> dict[str, str]:
    """The paper's four LUBM queries."""
    return {"Q1": query_q1(), "Q2": query_q2(), "Q3": query_q3(), "Q4": query_q4()}


def crossing_queries() -> dict[str, str]:
    """Queries whose joins must cross endpoint boundaries.

    The partial-evaluation benchmarks run these head-to-head against the
    bound-join ladder: Q4 is crossing-heavy (most of its intermediate
    volume is prunable by join-value digests); Q6's two name subqueries
    are large, but SAPE delays them and bound-joins them over the few
    full professors' bindings, so the ladder ships no more than partial
    evaluation does; Q5 is the high-fan-out case where partial
    evaluation wins on rounds and virtual time but both strategies ship
    similar input volumes.
    """
    return {"Q4": query_q4(), "Q5": query_q5(), "Q6": query_q6()}
