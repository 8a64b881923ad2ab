package network

// WireTagTable returns the registered wire tags with their names, for the
// external test package that links every protocol's wire set.
func WireTagTable() map[byte]string {
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	tags := make(map[byte]string)
	for tag, name := range wireNames {
		if wireDecoders[tag] != nil {
			tags[byte(tag)] = name
		}
	}
	return tags
}
