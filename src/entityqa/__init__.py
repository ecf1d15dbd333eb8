"""Entity-centric question answering over retrieved documents.

Pipeline: classify the question's expected answer type, extract typed
entities from the question's document set, score candidates by semantic
similarity between question and evidence sentences, combine with
document frequency, and emit a tie-grouped top-5 answer list. The
evaluation half scores such runs with classical and tie-aware metrics.
Names are imported from the modules that define them: `entityqa.corpus`,
`entityqa.pipeline`, `entityqa.evaluation` and the others.
"""

__version__ = "0.1.0"
