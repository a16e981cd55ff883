"""Exact-arithmetic models of ordered event descriptions: rational
primitive-time partitions, frozen segments and their paradigms, conjunction
words with a machine-checkable consequence operator, logic-system signatures,
and standard-part operators over truncated infinitesimals.
"""

from .consequence import (
    AxiomReport,
    ClosureResult,
    LogicSystem,
    Rule,
    WordDecomposition,
    check_consequence_axioms,
    closure,
    decompose,
    word_closure_contains,
)
from .errors import (
    AxiomCollision,
    DomainError,
    EmptySource,
    InadmissibleIndex,
    IncomparableMembers,
    NotPerceived,
    SizeLimit,
    TagCollision,
    TooFewMembers,
    UnknownLabel,
    UnknownSentence,
    Unlimited,
)
from .hyperreal import (
    SPUniverse,
    SubparticleRep,
    realism_relation,
    st_extended,
    st_point,
    st_set,
    st_subparticle,
)
from .language import (
    CONNECTIVE,
    ConjunctionWord,
    DevelopmentalParadigm,
    FrozenSegment,
    Word,
    build_conjunction_word,
    extract_time_id,
    naming_clause,
    ordered_choice,
    paradigm_from_json,
    segment_at,
)
from .numerics import (
    EpsilonSeries,
    Inf,
    LabelContext,
    Rational,
    Std,
    epsilon,
    format_rational,
    parse_rational,
)
from .paradigm import (
    EventSpace,
    PartialSequence,
    TruncationBounds,
    is_admissible_prefix,
    is_paradigm,
    segment_window,
    ultraword,
    window_indices,
)
from .signatures import (
    BehaviorSignature,
    PerceivedContext,
    TheorySignature,
    behavior_signature,
    converse_ri,
    perceived_closure,
    separate_vs_union,
    signature_operator_check,
    tag_j_prime,
    theory_signature,
)
from .timeline import (
    IndexPair,
    IntervalKind,
    PartitionScheme,
    verify_order_embedding,
)

__version__ = "0.1.0"
