//go:build !race

package distsearch

const raceEnabled = false
