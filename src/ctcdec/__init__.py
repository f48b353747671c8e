"""Streaming CTC decoding engine and shard IO toolkit.

Builds TLG decoding graphs from units + lexicon + ARPA LM, runs CTC
prefix / WFST beam search with contextual biasing and blank-frame
skipping over posterior matrices, fuses n-best scores bidirectionally,
and packs/reads tar-sharded datasets.

Import names from their submodules: `ctcdec.fst`, `ctcdec.graph`,
`ctcdec.decode`, `ctcdec.context`, `ctcdec.rescore`, `ctcdec.uio` and
the rest.
"""

__version__ = "0.1.0"
