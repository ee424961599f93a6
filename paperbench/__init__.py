"""Paper-workload benchmark of the hybrid gate-pulse reproduction."""
