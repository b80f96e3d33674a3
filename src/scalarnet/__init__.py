"""Group-wise adaptive kernel attention regression with self-calibration,
variational latent encoding, and a hierarchical PLS-style prediction head."""
