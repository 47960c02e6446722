"""caspr: self-supervised entity embeddings from timestamped activity logs.

Pipeline: declare a schema, fit it over a CSV activity log, pretrain the
sequence model with masked-recovery, export one embedding vector per
entity, and evaluate against the order-invariant RFM baseline.
"""
