#pragma once
// Umbrella header for the CPU comparator miners (paper Table 1 plus the
// Eclat / FP-Growth extensions) and the common Miner interface.

#include "baselines/apriori_util.hpp"
#include "baselines/bodon.hpp"
#include "baselines/borgelt.hpp"
#include "baselines/counting_trie.hpp"
#include "baselines/eclat.hpp"
#include "baselines/fpgrowth.hpp"
#include "baselines/goethals.hpp"
#include "baselines/hash_tree.hpp"
#include "baselines/miner.hpp"
