// Package gbt implements gradient-boosted trees (CART regression-tree base
// learners, logistic loss) from scratch — the "boosted trees" component of
// Sinan's SLA-violation predictor.
package gbt

import (
	"math"
	"sort"
)

// Config controls boosting.
type Config struct {
	Trees        int     // number of boosting rounds
	Depth        int     // max tree depth
	LearningRate float64 // shrinkage
	MinLeaf      int     // minimum samples per leaf
}

func (c *Config) defaults() {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
}

type node struct {
	feature     int
	threshold   float64
	left, right *node
	value       float64
	leaf        bool
}

func (n *node) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// fitTree builds a regression tree on residuals.
func fitTree(X [][]float64, y []float64, idx []int, depth int, cfg Config) *node {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	if depth >= cfg.Depth || len(idx) < 2*cfg.MinLeaf {
		return &node{leaf: true, value: mean}
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	baseSSE := 0.0
	for _, i := range idx {
		d := y[i] - mean
		baseSSE += d * d
	}
	nFeat := len(X[0])
	order := make([]int, len(idx))
	for f := 0; f < nFeat; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		// Prefix sums for O(n) split evaluation.
		sumL, cntL := 0.0, 0
		total := mean * float64(len(idx))
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			cntL++
			if cntL < cfg.MinLeaf || len(order)-cntL < cfg.MinLeaf {
				continue
			}
			if X[order[k]][f] == X[order[k+1]][f] {
				continue
			}
			sumR := total - sumL
			cntR := len(order) - cntL
			gain := sumL*sumL/float64(cntL) + sumR*sumR/float64(cntR) - total*total/float64(len(idx))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThr = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeat == -1 {
		return &node{leaf: true, value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &node{leaf: true, value: mean}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		left:      fitTree(X, y, li, depth+1, cfg),
		right:     fitTree(X, y, ri, depth+1, cfg),
	}
}

// Classifier is a logistic-loss gradient-boosted ensemble for binary labels.
type Classifier struct {
	cfg   Config
	base  float64 // log-odds prior
	trees []*node
}

// TrainClassifier fits the ensemble to (X, y) with y ∈ {0,1}.
func TrainClassifier(X [][]float64, y []float64, cfg Config) *Classifier {
	cfg.defaults()
	if len(X) == 0 || len(X) != len(y) {
		panic("gbt: bad training data")
	}
	pos := 0.0
	for _, v := range y {
		pos += v
	}
	p := math.Min(math.Max(pos/float64(len(y)), 1e-6), 1-1e-6)
	c := &Classifier{cfg: cfg, base: math.Log(p / (1 - p))}
	score := make([]float64, len(y))
	for i := range score {
		score[i] = c.base
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	grad := make([]float64, len(y))
	for t := 0; t < cfg.Trees; t++ {
		for i := range grad {
			grad[i] = y[i] - sigmoid(score[i]) // negative gradient of log-loss
		}
		tree := fitTree(X, grad, idx, 0, cfg)
		c.trees = append(c.trees, tree)
		for i := range score {
			score[i] += cfg.LearningRate * tree.predict(X[i])
		}
	}
	return c
}

// PredictProb reports P(y=1 | x).
func (c *Classifier) PredictProb(x []float64) float64 {
	s := c.base
	for _, t := range c.trees {
		s += c.cfg.LearningRate * t.predict(x)
	}
	return sigmoid(s)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
