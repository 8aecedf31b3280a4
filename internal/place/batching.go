package place

// Batch sizes for the paper's §VI-A non-blocking tuple batching. The
// mechanism (Algorithm 1) is implemented in the engine's output collector;
// this file holds the two constants the experiments use.

// BatchSizes are the S values the paper evaluates in Figures 12 and 13.
var BatchSizes = []int{2, 4, 8}

// DefaultBatchSize is the S used for the combined optimization (Fig 15).
const DefaultBatchSize = 8
