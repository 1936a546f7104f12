"""domdensity: exact domination numbers, density inequalities, k-regular
bipartite scans, and rank-based covering obstructions."""
