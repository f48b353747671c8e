"""Streaming CTC decoding engine and shard IO toolkit.

Builds TLG decoding graphs from units + lexicon + ARPA LM, runs CTC
prefix / WFST beam search with contextual biasing and blank-frame
skipping over posterior matrices, fuses n-best scores bidirectionally,
and packs/reads tar-sharded datasets.
"""

from .arpa import ArpaModel, NgramEntry, parse_arpa, read_arpa
from .context import (
    BiasingPhrase,
    ContextGraph,
    ContextState,
    load_biasing_phrases,
    score_hypothesis,
)
from .decode import (
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    PrefixBeamDecoder,
    StreamingDecoder,
    TraceStep,
    WfstBeamDecoder,
    skip_blank_frames,
)
from .errors import ConfigurationError, EngineError, ParseError, PreconditionError, ResourceError
from .fst import Arc, FstPath, WeightedFst, compose, connect, determinize, minimize, shortest_path
from .graph import build_G, build_L, build_T, build_TLG, read_units, units_of
from .lexicon import Lexicon, parse_lexicon, read_lexicon
from .rescore import FusionWeights, SequenceScorer, TableScorer, rescore_nbest, reverse_labels
from .symbols import SymbolTable
from .uio import (
    Batch,
    ChainOp,
    Filter,
    LocalStorage,
    Map,
    RawSampleReader,
    SampleRecord,
    ShardInfo,
    ShardList,
    Shuffle,
    SplitMix64,
    chain,
    iter_shard,
    pack_shards,
    read_shards,
    seeded_shuffle,
    shard_list_from_manifest,
)

__version__ = "0.1.0"
